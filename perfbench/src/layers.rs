//! In-process references and per-layer probes.
//!
//! References reproduce what the daemon computes through the same
//! public calls, so sampled wire pages can be compared bit for bit.
//! Probes time each layer's public functions directly; the traced
//! replays wrap the calls one request makes in spans.

use std::io::Cursor;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use milr_cluster::protocol::{self, GatherInput, WorkerRankRequest, WorkerRankResponse};
use milr_core::{BatchQuery, QuerySession, RankRequest, RetrievalConfig, RetrievalDatabase};
use milr_mil::{BagAggregator, Concept};
use milr_serve::cache::{CachedConcept, ConceptCache, ConceptKey};
use milr_serve::{client, http, Json};
use milr_store::ShardedDatabase;

use crate::corpus::{Examples, PAGE};
use crate::drive::{SessionLog, ROUNDS};
use crate::trace::Recorder;

pub type Page = Vec<(usize, f64)>;

/// Equal indices and bit-equal distances, entry by entry.
pub fn same_page(a: &[(usize, f64)], b: &[(usize, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

pub fn precision(page: &[(usize, f64)], labels: &[usize], target: usize) -> f64 {
    page.iter().filter(|&&(i, _)| labels[i] == target).count() as f64 / PAGE as f64
}

/// One training round as the benchmark observed it.
#[derive(Debug, Clone, Copy)]
pub struct TrainStats {
    pub ms: f64,
    pub starts: usize,
    pub evaluations: usize,
    pub warm: bool,
}

fn train(session: &mut QuerySession<'_>) -> Result<TrainStats, String> {
    let warm = session.warm_ready();
    let t = Instant::now();
    let result = session.train_round_traced().map_err(|e| e.to_string())?;
    Ok(TrainStats {
        ms: t.elapsed().as_secs_f64() * 1e3,
        starts: result.starts,
        evaluations: result.start_evaluations.iter().sum(),
        warm,
    })
}

/// A concept of the workload's fixed set, trained in-process exactly as
/// the daemon trains `GET /rank` examples, with its reference page.
pub struct Reference {
    pub examples: Examples,
    pub concept: Arc<Concept>,
    pub nldd: f64,
    pub page: Page,
    pub cold: TrainStats,
    /// A warm refinement round, trained only by the traced run.
    pub warm: Option<TrainStats>,
}

pub fn reference(
    db: &RetrievalDatabase,
    config: &RetrievalConfig,
    examples: &Examples,
    with_warm_round: bool,
) -> Result<Reference, String> {
    let mut session = QuerySession::builder(db)
        .config(config)
        .positives(examples.positives.clone())
        .negatives(examples.negatives.clone())
        .pool((0..db.len()).collect())
        .warm_start(true)
        .build()
        .map_err(|e| e.to_string())?;
    let cold = train(&mut session)?;
    let concept = session
        .shared_concept()
        .ok_or("no concept after training")?;
    let nldd = session.nldd();
    let page = db
        .rank(&concept, &RankRequest::all().top(PAGE))
        .map_err(|e| e.to_string())?;
    let warm = if with_warm_round {
        let pool_page = session
            .rank(&RankRequest::pool().top(PAGE))
            .map_err(|e| e.to_string())?;
        let promote: Vec<usize> = pool_page
            .iter()
            .map(|&(i, _)| i)
            .filter(|&i| db.labels()[i] != examples.target && !examples.negatives.contains(&i))
            .take(5)
            .collect();
        session.add_negatives(&promote).map_err(|e| e.to_string())?;
        Some(train(&mut session)?)
    } else {
        None
    };
    Ok(Reference {
        examples: examples.clone(),
        concept,
        nldd,
        page,
        cold,
        warm,
    })
}

/// Time per objective evaluation of one single-threaded cold training.
pub fn eval_ns(
    db: &RetrievalDatabase,
    config: &RetrievalConfig,
    examples: &Examples,
) -> Result<f64, String> {
    let single = RetrievalConfig {
        threads: 1,
        ..config.clone()
    };
    let mut session = QuerySession::builder(db)
        .config(&single)
        .positives(examples.positives.clone())
        .negatives(examples.negatives.clone())
        .pool(Vec::new())
        .build()
        .map_err(|e| e.to_string())?;
    let stats = train(&mut session)?;
    Ok(stats.ms * 1e6 / stats.evaluations.max(1) as f64)
}

/// The outcome of replaying one wire session in-process.
pub struct Replayed {
    pub trains: Vec<TrainStats>,
    /// Whether every round's page matched the wire bit for bit.
    pub matches: bool,
}

/// Replays a feedback session through `QuerySession` — the engine
/// behind `POST /sessions/{id}/feedback` — with the user's marks, and
/// compares every round's page with the one the wire carried. Each
/// round is traced as a replay of the wire request it mirrors.
pub fn replay_session(
    db: &RetrievalDatabase,
    config: &RetrievalConfig,
    log: &SessionLog,
    rec: &Recorder,
) -> Result<Replayed, String> {
    let e = &log.examples;
    let mut session = QuerySession::builder(db)
        .config(config)
        .positives(e.positives.clone())
        .negatives(e.negatives.clone())
        .pool((0..db.len()).collect())
        .warm_start(true)
        .build()
        .map_err(|e| e.to_string())?;
    let mut trains = Vec::new();
    let mut cached: Vec<(Vec<usize>, Arc<Concept>, f64)> = Vec::new();
    let mut matches = log.pages.len() == ROUNDS;
    for round in 0..log.pages.len() {
        let id = log.request_ids[round + 1];
        let body = Json::Obj(vec![
            ("k".into(), Json::num(PAGE as f64)),
            ("negatives".into(), Json::indices(&log.marks[round])),
        ])
        .dump();
        let wire = format!(
            "POST /sessions/1/feedback HTTP/1.1\r\nHost: milrd\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            body.len()
        );
        let page = rec.span("replay", id, None, |root| -> Result<Page, String> {
            let marks = rec.span("serve.http_parse", id, root, |_| {
                let req = parse_head(wire.as_bytes())?;
                let json = Json::parse(std::str::from_utf8(&req.body).map_err(|e| e.to_string())?)?;
                json.get("negatives")
                    .and_then(Json::as_array)
                    .map(|a| {
                        a.iter()
                            .filter_map(Json::as_u64)
                            .map(|v| v as usize)
                            .collect::<Vec<_>>()
                    })
                    .ok_or_else(|| "feedback body has no negatives".to_string())
            })?;
            session.add_negatives(&marks).map_err(|e| e.to_string())?;
            // The daemon caches cold rounds by example set: a round that
            // promotes nothing new adopts the cached concept.
            let key = canonical(session.negatives());
            let hit = rec.span("serve.cache_lookup", id, root, |_| {
                cached
                    .iter()
                    .find(|(k, _, _)| *k == key)
                    .map(|(_, c, n)| (Arc::clone(c), *n))
            });
            match hit {
                Some((concept, nldd)) => session
                    .adopt_concept(concept, nldd)
                    .map_err(|e| e.to_string())?,
                None => {
                    let stats = rec.span("optim.train", id, root, |_| train(&mut session))?;
                    if !stats.warm {
                        let concept = session
                            .shared_concept()
                            .ok_or("no concept after training")?;
                        cached.push((key, concept, session.nldd()));
                    }
                    trains.push(stats);
                }
            }
            let page = rec.span("core.rank", id, root, |_| {
                session
                    .rank(&RankRequest::pool().top(PAGE))
                    .map_err(|e| e.to_string())
            })?;
            rec.span("serve.json_encode", id, root, |_| {
                encode_page(&page, session.nldd())
            });
            Ok(page)
        })?;
        matches &= same_page(&page, &log.pages[round]);
    }
    Ok(Replayed { trains, matches })
}

fn canonical(list: &[usize]) -> Vec<usize> {
    let mut v = list.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

fn parse_head(bytes: &[u8]) -> Result<http::Request, String> {
    let mut pending = Vec::new();
    http::read_request_buffered(&mut Cursor::new(bytes), &mut pending, 1 << 20)
        .map_err(|e| format!("{e:?}"))
}

/// The daemon's page body: the JSON the handler builds, serialised;
/// its length goes through `black_box` so the work cannot be elided.
fn encode_page(page: &[(usize, f64)], nldd: f64) -> usize {
    let ranking = Json::Arr(
        page.iter()
            .map(|&(index, distance)| {
                Json::Obj(vec![
                    ("index".into(), Json::num(index as f64)),
                    ("distance".into(), Json::Num(distance)),
                ])
            })
            .collect(),
    );
    let body = Json::Obj(vec![
        ("ranking".into(), ranking),
        ("cache_hit".into(), Json::Bool(true)),
        ("nldd".into(), Json::Num(nldd)),
        ("aggregator".into(), Json::str("min")),
    ]);
    std::hint::black_box(body.dump().len())
}

/// Ranking-path A/B over the workload's concepts: every path must
/// return the reference page bit for bit.
#[derive(Default)]
pub struct RankAb {
    pub core_topk_us: Vec<f64>,
    pub core_full_us: Vec<f64>,
    pub store_us: Vec<f64>,
    pub store_noindex_us: Vec<f64>,
    pub naive_us: Vec<f64>,
    pub prune_share: f64,
    pub cells_skipped_share: f64,
    pub quant_rescore_share: f64,
    pub identical: bool,
}

fn counter(name: &str) -> f64 {
    milr_obs::global().counter(name).get() as f64
}

fn timed_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e6)
}

/// The naive min-fold: every instance of every bag scored with the
/// canonical kernel, no pruning, screen or index, then one full sort.
fn naive_rank(db: &RetrievalDatabase, concept: &Concept) -> Page {
    let mut scored: Page = (0..db.len())
        .map(|i| {
            let bag = db.bag(i).expect("index in range");
            let d = bag
                .instances()
                .map(|inst| concept.instance_distance_sq(inst))
                .fold(f64::INFINITY, f64::min);
            (i, d)
        })
        .collect();
    scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    scored.truncate(PAGE);
    scored
}

/// Runs every ranking path `reps` times per concept (the full and naive
/// scans once per concept: they cost the same whatever the concept).
pub fn rank_ab(
    db: &RetrievalDatabase,
    store: &ShardedDatabase,
    refs: &[Reference],
    reps: usize,
) -> Result<RankAb, String> {
    let mut ab = RankAb {
        identical: true,
        ..RankAb::default()
    };
    let top = RankRequest::all().top(PAGE);
    let noindex = RankRequest::all().top(PAGE).index(false);
    let (pruned0, cand0) = (
        counter("milr_rank_topk_pruned_total"),
        counter("milr_rank_topk_candidates_total"),
    );
    let mut store_counters = [0.0f64; 4];
    for r in refs {
        let c = &*r.concept;
        for _ in 0..reps {
            let (page, us) = timed_us(|| db.rank(c, &top));
            ab.identical &= same_page(&page.map_err(|e| e.to_string())?, &r.page);
            ab.core_topk_us.push(us);

            let before = [
                counter("milr_rank_cells_skipped_total"),
                counter("milr_rank_cells_scanned_total"),
                counter("milr_rank_quant_rescored_total"),
                counter("milr_rank_quant_screened_total"),
            ];
            let (page, us) = timed_us(|| store.rank(c, &top));
            ab.identical &= same_page(&page.map_err(|e| e.to_string())?, &r.page);
            ab.store_us.push(us);
            let after = [
                counter("milr_rank_cells_skipped_total"),
                counter("milr_rank_cells_scanned_total"),
                counter("milr_rank_quant_rescored_total"),
                counter("milr_rank_quant_screened_total"),
            ];
            for i in 0..4 {
                store_counters[i] += after[i] - before[i];
            }

            let (page, us) = timed_us(|| store.rank(c, &noindex));
            ab.identical &= same_page(&page.map_err(|e| e.to_string())?, &r.page);
            ab.store_noindex_us.push(us);
        }
        let (full, us) = timed_us(|| db.rank(c, &RankRequest::all()));
        let mut full = full.map_err(|e| e.to_string())?;
        full.truncate(PAGE);
        ab.identical &= same_page(&full, &r.page);
        ab.core_full_us.push(us);

        let (page, us) = timed_us(|| naive_rank(db, c));
        ab.identical &= same_page(&page, &r.page);
        ab.naive_us.push(us);
    }
    ab.prune_share = crate::stats::share(
        counter("milr_rank_topk_pruned_total") - pruned0,
        counter("milr_rank_topk_candidates_total") - cand0,
    );
    let [skipped, scanned, rescored, screened] = store_counters;
    ab.cells_skipped_share = crate::stats::share(skipped, skipped + scanned);
    ab.quant_rescore_share = crate::stats::share(rescored, screened);
    Ok(ab)
}

/// A scatter leg target: one worker's address and the generation it
/// serves.
#[derive(Debug, Clone, Copy)]
pub struct Leg {
    pub addr: SocketAddr,
    pub generation: u64,
}

/// What the traced replay of rank requests measured.
#[derive(Default)]
pub struct RankReplay {
    pub leg_us: Vec<f64>,
    /// Whether every gathered page equalled the reference page.
    pub gathered_identical: bool,
}

/// Replays wire rank requests, given as `(request id, concept)` and
/// started `gap` apart, through the layers the daemon (or, with `legs`,
/// the coordinator) runs for one request: head and query parse, concept-cache lookup,
/// ranking (or scatter legs to the workers, the worker protocol codec
/// and the gather), and page encoding.
#[allow(clippy::too_many_arguments)]
pub fn replay_rank(
    db: &RetrievalDatabase,
    config: &RetrievalConfig,
    refs: &[Reference],
    route: &str,
    legs: &[Leg],
    requests: &[(u64, usize)],
    gap: Duration,
    rec: &Recorder,
) -> Result<RankReplay, String> {
    let policy = config.policy.label();
    let mut cache = ConceptCache::new(128);
    for r in refs {
        cache.insert(
            ConceptKey::new(&r.examples.positives, &r.examples.negatives, &policy, 1),
            CachedConcept {
                concept: Arc::clone(&r.concept),
                nldd: r.nldd,
            },
        );
    }
    let mut conns: Vec<client::Connection> = legs
        .iter()
        .map(|l| client::Connection::new(l.addr, Duration::from_secs(30)))
        .collect();
    let mut out = RankReplay {
        gathered_identical: true,
        ..RankReplay::default()
    };
    let begin = Instant::now();
    for (j, &(id, concept)) in requests.iter().enumerate() {
        // Paced like the wire requests, so caches cool between requests
        // as they did on the wire.
        if let Some(wait) = (begin + gap * j as u32).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let r = &refs[concept];
        let wire = format!(
            "GET {} HTTP/1.1\r\nHost: milrd\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n",
            r.examples.query(route)
        );
        rec.span("replay", id, None, |root| -> Result<(), String> {
            let (positives, negatives) = rec.span("serve.http_parse", id, root, |_| {
                let req = parse_head(wire.as_bytes())?;
                Ok::<_, String>((
                    index_list(req.query_param("positives")),
                    index_list(req.query_param("negatives")),
                ))
            })?;
            let hit = rec.span("serve.cache_lookup", id, root, |_| {
                cache.get(&ConceptKey::new(&positives, &negatives, &policy, 1))
            });
            let concept = hit
                .ok_or("replayed concept missing from the cache")?
                .concept;
            let page = if legs.is_empty() {
                // The daemon ranks through its batcher: one `rank_batch`.
                rec.span("core.rank", id, root, |_| {
                    let query = BatchQuery {
                        concept: Arc::clone(&concept),
                        top_k: Some(PAGE),
                    };
                    let request = RankRequest::all().threads(config.threads);
                    let mut pages = db
                        .rank_batch(&[query], &request)
                        .map_err(|e| e.to_string())?;
                    pages.pop().ok_or_else(|| "empty batch".to_string())
                })?
            } else {
                let rankings = rec.span("cluster.scatter", id, root, |scatter| {
                    scatter_legs(&mut conns, legs, &concept, id, scatter, rec)
                })?;
                let leg_us: Vec<f64> = rankings.iter().map(|(_, us)| *us).collect();
                out.leg_us.extend(leg_us);
                let gathered = rec.span("cluster.gather", id, root, |_| {
                    protocol::gather(
                        rankings
                            .into_iter()
                            .map(|(ranking, _)| GatherInput {
                                shard_ids: Vec::new(),
                                ranking: Some(ranking),
                            })
                            .collect(),
                        PAGE,
                    )
                });
                out.gathered_identical &=
                    !gathered.partial && same_page(&gathered.ranking, &r.page);
                gathered.ranking
            };
            rec.span("serve.json_encode", id, root, |_| {
                encode_page(&page, r.nldd)
            });
            Ok(())
        })?;
    }
    Ok(out)
}

fn index_list(text: Option<&str>) -> Vec<usize> {
    text.unwrap_or("")
        .split(',')
        .filter_map(|p| p.trim().parse().ok())
        .collect()
}

/// Sends one `POST /worker/rank` leg per worker in parallel, as the
/// coordinator's scatter does; returns each leg's ranking and time.
fn scatter_legs(
    conns: &mut [client::Connection],
    legs: &[Leg],
    concept: &Concept,
    id: u64,
    parent: Option<u64>,
    rec: &Recorder,
) -> Result<Vec<(Page, f64)>, String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(legs)
            .map(|(conn, leg)| {
                scope.spawn(move || {
                    let t = Instant::now();
                    let ranking = rec.span("cluster.leg", id, parent, |leg_span| {
                        let body = rec.span("cluster.codec", id, leg_span, |_| {
                            WorkerRankRequest {
                                generation: leg.generation,
                                k: PAGE,
                                bound: f64::INFINITY,
                                concept: concept.clone(),
                                aggregator: BagAggregator::MinDistance,
                            }
                            .to_json()
                            .dump()
                        });
                        let response = conn
                            .request("POST", "/worker/rank", Some(body.as_bytes()))
                            .map_err(|e| format!("worker leg: {e}"))?;
                        if response.status != 200 {
                            return Err(format!("worker leg answered {}", response.status));
                        }
                        rec.span("cluster.codec", id, leg_span, |_| {
                            let text =
                                std::str::from_utf8(&response.body).map_err(|e| e.to_string())?;
                            WorkerRankResponse::from_json(&Json::parse(text)?).map(|r| r.ranking)
                        })
                    })?;
                    Ok((ranking, t.elapsed().as_secs_f64() * 1e6))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scatter leg thread"))
            .collect()
    })
}

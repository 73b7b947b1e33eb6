//! The three workloads and their seeded input generators. Every input is a
//! pure function of the run seed and an index, and is generated outside
//! every timed region.

use ft_core::{splitmix64, FatTree, Message, MessageSet, SplitMix64};
use ft_serve::client::request_msgs;
use ft_topology::{Embedded, Topology};
use ft_workloads::random_k_relation;

/// Where the engine ops run and what a job is.
#[derive(Clone, Copy, Debug)]
pub enum EngineShape {
    /// A universal fat-tree of `n` leaves and root capacity `w`; each job
    /// is a fresh random `k`-relation.
    Bulk { n: u32, w: u64, k: u32 },
    /// The `kary:k=<k>,over=<over>` pod fabric padded to a binary tree;
    /// each job is `waves` incast waves of `senders` senders drawn from
    /// other pods into one receiver per wave.
    Pod {
        k: u32,
        over: u64,
        waves: u32,
        senders: u32,
    },
    /// The serve tree (`n`, `w`); each job is one served request's
    /// message list, run in-process.
    Requests,
}

/// The served traffic: the server runs `ftsim serve` defaults.
#[derive(Clone, Debug)]
pub struct ServeShape {
    pub n: u32,
    pub w: u64,
    /// Messages per request (uniform random endpoints).
    pub msgs: usize,
    /// Fixed offered rates (req/s).
    pub low_rps: f64,
    pub high_rps: f64,
    /// p99 latency limit for `serve.max_rps` (µs).
    pub limit_us: f64,
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub engine: EngineShape,
    /// Jobs every run completes however short `--seconds` is; the simulated
    /// metrics (cycles, λ, resends) are taken over exactly these jobs, so
    /// they repeat for a seed.
    pub fixed_jobs: usize,
    pub serve: ServeShape,
}

pub const WORKLOADS: [&str; 3] = ["bulk_uniform", "pod_incast", "serve_small"];

impl Workload {
    /// The named workload at full size, or at `tiny` size for the
    /// self-test.
    pub fn named(name: &str, tiny: bool) -> Option<Workload> {
        let serve = ServeShape {
            n: 256,
            w: 64,
            msgs: 64,
            low_rps: if tiny { 400.0 } else { 1000.0 },
            high_rps: if tiny { 1600.0 } else { 8000.0 },
            limit_us: 2000.0,
        };
        Some(match name {
            "bulk_uniform" => Workload {
                name: "bulk_uniform",
                engine: if tiny {
                    EngineShape::Bulk {
                        n: 1 << 10,
                        w: 1 << 8,
                        k: 2,
                    }
                } else {
                    EngineShape::Bulk {
                        n: 1 << 17,
                        w: 1 << 15,
                        k: 2,
                    }
                },
                fixed_jobs: if tiny { 2 } else { 12 },
                serve,
            },
            "pod_incast" => Workload {
                name: "pod_incast",
                engine: if tiny {
                    EngineShape::Pod {
                        k: 6,
                        over: 2,
                        waves: 4,
                        senders: 16,
                    }
                } else {
                    EngineShape::Pod {
                        k: 24,
                        over: 4,
                        waves: 32,
                        senders: 256,
                    }
                },
                fixed_jobs: if tiny { 2 } else { 64 },
                serve,
            },
            "serve_small" => Workload {
                name: "serve_small",
                engine: EngineShape::Requests,
                fixed_jobs: if tiny { 16 } else { 256 },
                serve,
            },
            _ => return None,
        })
    }
}

/// Seed of engine job `i`. The run seed is mixed before the index is
/// added, so nearby seeds share no jobs.
pub fn job_seed(seed: u64, i: u64) -> u64 {
    splitmix64(splitmix64(seed ^ 0x6A0B_5EED_0000_0000).wrapping_add(i))
}

/// The tree the engine ops run on, and the embedding that maps real
/// processors onto it (pod fabrics only).
pub struct Machine {
    pub emb: Option<Embedded>,
    pub tree: FatTree,
}

impl Machine {
    pub fn build(wl: &Workload) -> Machine {
        match wl.engine {
            EngineShape::Bulk { n, w, .. } => Machine {
                emb: None,
                tree: FatTree::universal(n, w),
            },
            EngineShape::Pod { k, over, .. } => {
                let emb = Embedded::new(Topology::kary_pods(k, over));
                let tree = emb.tree().clone();
                Machine {
                    emb: Some(emb),
                    tree,
                }
            }
            EngineShape::Requests => Machine {
                emb: None,
                tree: FatTree::universal(wl.serve.n, wl.serve.w),
            },
        }
    }
}

/// Engine job `i` in real processor ids (pod jobs still need mapping).
pub fn engine_job(wl: &Workload, seed: u64, i: u64) -> MessageSet {
    let js = job_seed(seed, i);
    match wl.engine {
        EngineShape::Bulk { n, k, .. } => {
            random_k_relation(n, k, &mut SplitMix64::seed_from_u64(js))
        }
        EngineShape::Pod {
            k, waves, senders, ..
        } => {
            let topo = Topology::kary_pods(k, 1);
            let servers = topo.leaves() as u32;
            let pod = topo.subtree_leaves(1) as u32;
            pod_incast(servers, pod, waves, senders, js)
        }
        EngineShape::Requests => {
            let mut packed = Vec::new();
            request_words(&wl.serve, js, &mut packed);
            MessageSet::from_vec(packed.iter().map(|&p| unpack(p)).collect())
        }
    }
}

/// `waves` incast waves on `servers` processors grouped in pods of `pod`:
/// each wave picks one receiver and `senders` distinct senders outside the
/// receiver's pod.
fn pod_incast(servers: u32, pod: u32, waves: u32, senders: u32, seed: u64) -> MessageSet {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut m = MessageSet::with_capacity((waves * senders) as usize);
    let mut taken = vec![false; servers as usize];
    for _ in 0..waves {
        let dst = rng.gen_range(0..servers);
        let home = dst / pod;
        taken.fill(false);
        let mut got = 0;
        while got < senders {
            let src = rng.gen_range(0..servers);
            if src / pod != home && !taken[src as usize] {
                taken[src as usize] = true;
                m.push(Message::new(src, dst));
                got += 1;
            }
        }
    }
    m
}

/// The packed (`src << 32 | dst`) message words of the request whose seed
/// is `req_seed`: `ftsim bench-client`'s uniform generator.
pub fn request_words(s: &ServeShape, req_seed: u64, out: &mut Vec<u64>) {
    request_msgs(req_seed, s.msgs, s.n, out)
}

pub fn unpack(p: u64) -> Message {
    Message::new((p >> 32) as u32, p as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incast_senders_leave_the_receivers_pod() {
        let m = pod_incast(3456, 144, 32, 256, 7);
        assert_eq!(m.len(), 32 * 256);
        assert!(m.iter().all(|x| x.src.0 / 144 != x.dst.0 / 144));
    }

    #[test]
    fn jobs_repeat_for_a_seed() {
        for name in WORKLOADS {
            let wl = Workload::named(name, true).unwrap();
            assert_eq!(engine_job(&wl, 5, 1), engine_job(&wl, 5, 1));
            assert_ne!(engine_job(&wl, 5, 1), engine_job(&wl, 6, 1));
        }
    }
}

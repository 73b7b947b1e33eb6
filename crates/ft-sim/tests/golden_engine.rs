//! Golden equivalence: the flat-array engine must reproduce the retained
//! reference engine byte for byte — same delivered/dropped index lists, same
//! tick counts, same channel usage, same run traces — across trees, capacity
//! profiles, switch flavors, arbitration policies, fault patterns, and
//! workloads. Well over 200 seeded cases.

use ft_core::rng::SplitMix64;
use ft_core::{CapacityProfile, FatTree, Message, MessageSet, MessageStream};
use ft_sim::reference::{run_to_completion_reference, simulate_cycle_reference};
use ft_sim::{
    run_to_completion, simulate_cycle, Arbitration, FaultModel, MetaWidth, SimConfig, SwitchKind,
};
use ft_topology::{parse_spec, Embedded};
use ft_workloads::{IncastStream, RelationStream};

/// The tree shapes under test.
fn trees() -> Vec<FatTree> {
    vec![
        FatTree::new(8, CapacityProfile::Constant(1)),
        FatTree::new(16, CapacityProfile::Constant(2)),
        FatTree::new(32, CapacityProfile::FullDoubling),
        FatTree::universal(32, 8),
        FatTree::universal(64, 16),
    ]
}

/// The engine configurations under test. Both metadata widths are pinned
/// against the (wide, HashMap-based) reference — `Narrow` is what `Auto`
/// picks on these small trees, `Wide` keeps the u64 path honest, and their
/// shared oracle makes the two layouts byte-identical to each other.
fn configs() -> Vec<SimConfig> {
    let mut cfgs = Vec::new();
    for switch in [SwitchKind::Ideal, SwitchKind::Partial] {
        for arbitration in [Arbitration::SlotOrder, Arbitration::Random(0xFEED)] {
            for faults in [
                FaultModel::none(),
                FaultModel {
                    dead_wire_fraction: 0.2,
                    seed: 3,
                },
            ] {
                for meta in [MetaWidth::Narrow, MetaWidth::Wide] {
                    cfgs.push(SimConfig {
                        payload_bits: 16,
                        switch,
                        arbitration,
                        faults,
                        threads: 1,
                        meta,
                    });
                }
            }
        }
    }
    cfgs
}

/// A seeded workload on `n` processors: permutations, hot spots, and random
/// many-to-many traffic (including locals and duplicate sources).
fn workload(n: u32, seed: u64) -> Vec<Message> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    match seed % 3 {
        0 => {
            let mut dst: Vec<u32> = (0..n).collect();
            rng.shuffle(&mut dst);
            (0..n).map(|i| Message::new(i, dst[i as usize])).collect()
        }
        1 => {
            let hot = rng.gen_range(0..n);
            (0..n).map(|i| Message::new(i, hot)).collect()
        }
        _ => (0..2 * n)
            .map(|_| Message::new(rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect(),
    }
}

fn assert_cycles_equal(ft: &FatTree, msgs: &[Message], cfg: &SimConfig, tag: &str) {
    let want = simulate_cycle_reference(ft, msgs, cfg);
    let got = simulate_cycle(ft, msgs, cfg);
    assert_eq!(got.delivered, want.delivered, "delivered diverged [{tag}]");
    assert_eq!(got.dropped, want.dropped, "dropped diverged [{tag}]");
    assert_eq!(got.ticks, want.ticks, "ticks diverged [{tag}]");
    assert_eq!(
        got.channel_use, want.channel_use,
        "channel_use diverged [{tag}]"
    );
}

fn assert_runs_equal(ft: &FatTree, msgs: &MessageSet, cfg: &SimConfig, tag: &str) {
    // Some combinations legitimately stall (e.g. a deterministic partial
    // concentrator that routes nothing at a hot spot): both engines must
    // then hit the same no-progress assertion.
    let want = std::panic::catch_unwind(|| run_to_completion_reference(ft, msgs, cfg));
    let got = std::panic::catch_unwind(|| run_to_completion(ft, msgs, cfg));
    let (want, got) = match (want, got) {
        (Ok(w), Ok(g)) => (w, g),
        (Err(_), Err(_)) => return, // both stalled: equivalent behavior
        (Ok(_), Err(_)) => panic!("only the flat-array engine stalled [{tag}]"),
        (Err(_), Ok(_)) => panic!("only the reference engine stalled [{tag}]"),
    };
    assert_eq!(got.cycles, want.cycles, "cycles diverged [{tag}]");
    assert_eq!(
        got.delivered_per_cycle, want.delivered_per_cycle,
        "delivered_per_cycle diverged [{tag}]"
    );
    assert_eq!(
        got.total_ticks, want.total_ticks,
        "total_ticks diverged [{tag}]"
    );
    assert_eq!(
        got.delivery_order, want.delivery_order,
        "delivery_order diverged [{tag}]"
    );
}

#[test]
fn simulate_cycle_matches_reference_everywhere() {
    let mut cases = 0usize;
    for ft in trees() {
        for cfg in configs() {
            for seed in 0..9u64 {
                let msgs = workload(ft.n(), 101 + seed);
                let tag = format!("n={} cfg={cfg:?} seed={seed}", ft.n());
                assert_cycles_equal(&ft, &msgs, &cfg, &tag);
                cases += 1;
            }
        }
    }
    assert!(cases >= 200, "only {cases} single-cycle golden cases");
}

#[test]
fn run_to_completion_matches_reference_everywhere() {
    let mut cases = 0usize;
    for ft in trees() {
        for cfg in configs() {
            for seed in 0..5u64 {
                let msgs: MessageSet = workload(ft.n(), 211 + seed).into_iter().collect();
                let tag = format!("n={} cfg={cfg:?} seed={seed}", ft.n());
                assert_runs_equal(&ft, &msgs, &cfg, &tag);
                cases += 1;
            }
        }
    }
    assert!(cases >= 200, "only {cases} run-to-completion golden cases");
}

#[test]
fn empty_and_degenerate_sets_match() {
    let ft = FatTree::universal(16, 4);
    let cfg = SimConfig::default();
    assert_cycles_equal(&ft, &[], &cfg, "empty");
    // All-local traffic: delivered without touching the network.
    let locals: Vec<Message> = (0..16).map(|i| Message::new(i, i)).collect();
    assert_cycles_equal(&ft, &locals, &cfg, "all-local");
    let set: MessageSet = locals.into_iter().collect();
    assert_runs_equal(&ft, &set, &cfg, "all-local-run");
}

#[test]
fn parallel_execution_is_deterministic() {
    // Thread count must not change a single byte of any report: sibling
    // subtrees own disjoint channels, and the scatter pass is serial.
    for ft in [
        FatTree::universal(64, 16),
        FatTree::new(32, CapacityProfile::Constant(2)),
    ] {
        for arbitration in [Arbitration::SlotOrder, Arbitration::Random(9)] {
            for seed in 0..4u64 {
                let msgs: MessageSet = workload(ft.n(), 307 + seed).into_iter().collect();
                let serial = SimConfig {
                    arbitration,
                    threads: 1,
                    ..Default::default()
                };
                let want = run_to_completion(&ft, &msgs, &serial);
                for threads in [2, 3, 8] {
                    let cfg = SimConfig { threads, ..serial };
                    let got = run_to_completion(&ft, &msgs, &cfg);
                    assert_eq!(got.cycles, want.cycles, "threads={threads}");
                    assert_eq!(got.delivery_order, want.delivery_order, "threads={threads}");
                    assert_eq!(got.total_ticks, want.total_ticks, "threads={threads}");
                }
            }
        }
    }
}

#[test]
fn parallel_single_cycle_matches_reference() {
    let ft = FatTree::universal(128, 32);
    for seed in 0..6u64 {
        let msgs = workload(ft.n(), 401 + seed);
        for threads in [2, 4] {
            let cfg = SimConfig {
                threads,
                ..Default::default()
            };
            let want = simulate_cycle_reference(&ft, &msgs, &SimConfig::default());
            let got = simulate_cycle(&ft, &msgs, &cfg);
            assert_eq!(
                got.delivered, want.delivered,
                "threads={threads} seed={seed}"
            );
            assert_eq!(
                got.channel_use, want.channel_use,
                "threads={threads} seed={seed}"
            );
        }
    }
}

/// Permutation, random 3-relation and an 8-receiver incast on `n`
/// processors.
fn wide_channel_workloads(n: u32, seed: u64) -> Vec<(&'static str, MessageSet)> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut dst: Vec<u32> = (0..n).collect();
    rng.shuffle(&mut dst);
    vec![
        (
            "perm",
            (0..n).map(|i| Message::new(i, dst[i as usize])).collect(),
        ),
        ("krel3", RelationStream::new(n, 3, seed).collect_set()),
        (
            "incast8",
            IncastStream::new(n, 64.min(n - 1), 8, seed).collect_set(),
        ),
    ]
}

/// Pin a large tree against the reference engine under fault fractions
/// 0, 0.2 and 0.5: the default (fused) configuration, then the per-level
/// passes — wide words, and seeded random arbitration on the narrow
/// layout. Where the upper channels have order r > 64 the per-level down
/// passes walk the slot table instead of arbitrating runs, and the fused
/// kernel splits wide node groups. Thin trees (r ≤ 64 everywhere) run the
/// per-level configurations one cycle only: their multi-cycle runs take
/// the run-arbitration path the small-tree goldens already cover. `embed`
/// maps traffic drawn over real servers onto the padded tree.
fn check_large_tree(name: &str, ft: &FatTree, embed: Option<&Embedded>) {
    let procs = embed.map_or(ft.n(), |e| e.leaves());
    let fat_top = ft.cap_at_level(0) + ft.cap_at_level(1) > 64;
    for (wname, set) in wide_channel_workloads(procs, 0x51DE ^ procs as u64) {
        let set = match embed {
            Some(e) => e.map_set(&set),
            None => set,
        };
        for fraction in [0.0, 0.2, 0.5] {
            let faults = FaultModel {
                dead_wire_fraction: fraction,
                seed: 11,
            };
            let per_level = [
                SimConfig {
                    meta: MetaWidth::Wide,
                    ..Default::default()
                },
                SimConfig {
                    arbitration: Arbitration::Random(0x7AB1E),
                    ..Default::default()
                },
            ];
            for (k, cfg) in [SimConfig::default()].iter().chain(&per_level).enumerate() {
                let cfg = SimConfig { faults, ..*cfg };
                let tag = format!("{name} {wname} faults={fraction} cfg={cfg:?}");
                assert_cycles_equal(ft, set.as_slice(), &cfg, &tag);
                if k == 0 || fat_top {
                    assert_runs_equal(ft, &set, &cfg, &tag);
                }
            }
        }
    }
}

#[test]
fn universal_1024_w512_matches_reference() {
    check_large_tree(
        "universal n=1024 w=512",
        &FatTree::universal(1024, 512),
        None,
    );
}

#[test]
fn universal_4096_w1024_matches_reference() {
    check_large_tree(
        "universal n=4096 w=1024",
        &FatTree::universal(4096, 1024),
        None,
    );
}

#[test]
fn full_doubling_2048_matches_reference() {
    let ft = FatTree::new(2048, CapacityProfile::FullDoubling);
    check_large_tree("full n=2048", &ft, None);
}

#[test]
fn constant3_1024_matches_reference() {
    let ft = FatTree::new(1024, CapacityProfile::Constant(3));
    check_large_tree("constant3 n=1024", &ft, None);
}

#[test]
fn embedded_kary_pods_match_reference() {
    let kary = Embedded::new(parse_spec("kary:k=16,over=4").expect("valid spec"));
    check_large_tree("kary k=16 over=4", kary.tree(), Some(&kary));
}

/// Seeded random trees built with `FatTree::from_level_caps` — arbitrary
/// per-level capacities, including switch-internal levels wider than the
/// channel above them, as topology embeddings produce — under random
/// traffic (locals, duplicate sources, a hot destination) and fault
/// fractions, default configuration against the reference engine.
#[test]
fn random_level_caps_match_reference() {
    let mut rng = SplitMix64::seed_from_u64(0xF022);
    for case in 0..300u64 {
        let lg = rng.gen_range(1..7u32);
        let n = 1u32 << lg;
        let widest = [1u64, 2, 3, 8, 70][rng.gen_range(0..5usize)];
        let caps: Vec<u64> = (0..=lg).map(|_| rng.gen_range(1..widest + 1)).collect();
        let ft = FatTree::from_level_caps(n, caps.clone());
        let hot = rng.gen_range(0..n);
        let msgs: Vec<Message> = (0..rng.gen_range(0..3 * n + 1))
            .map(|_| {
                let dst = if rng.gen_range(0..3u32) == 0 {
                    hot
                } else {
                    rng.gen_range(0..n)
                };
                Message::new(rng.gen_range(0..n), dst)
            })
            .collect();
        let cfg = SimConfig {
            faults: FaultModel {
                dead_wire_fraction: [0.0, 0.2, 0.5][rng.gen_range(0..3usize)],
                seed: case,
            },
            ..Default::default()
        };
        let tag = format!("case={case} caps={caps:?}");
        assert_cycles_equal(&ft, &msgs, &cfg, &tag);
        assert_runs_equal(&ft, &msgs.into_iter().collect(), &cfg, &tag);
    }
}

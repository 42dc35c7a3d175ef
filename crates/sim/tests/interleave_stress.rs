//! Deterministic interleaving stress for the CAS commit path.
//!
//! The concurrent backend exposes `#[doc(hidden)]` pause points
//! ([`PausePoint::PreCommit`], [`PausePoint::BeforeLeg`]) fired on the
//! committing thread between its optimistic probe and each word commit.
//! The tests here park one thread inside that window with a barrier,
//! let a rival commit the very word the parked probe validated, and
//! then assert the exact recovery the design promises: the stale CAS
//! revalidation fails, committed legs roll back newest-first, the input
//! word is released, and the retry (or the coarse all-stripes path)
//! re-routes on surviving capacity — no double-occupancy, no leaked
//! wavelengths, and the seqlock epoch counts exactly one aborted pair.
//!
//! A third test replaces the barrier with a seeded two-thread scheduler
//! (a shared [`ChoiceStream`] drawing a yield budget at every pause
//! point — no new dependencies), hammering one contended middle word
//! from both sides across many seeds.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use wdm_core::{Endpoint, MulticastConnection, MulticastModel};
use wdm_multistage::{bounds, ConcurrentThreeStage, Construction, PausePoint, ThreeStageParams};
use wdm_sim::ChoiceStream;

/// (n=2, m=bound, r=2, k=1): four external ports, modules {0,1}, one
/// wavelength — every middle link word holds at most one connection, so
/// two admissions into the same output module through the same middle
/// switch MUST collide on that word.
fn contended_net() -> ConcurrentThreeStage {
    let (n, r, k) = (2, 2, 1);
    let m = bounds::theorem1_min_m(n, r).m;
    assert!(m >= 2, "retry needs a second middle switch");
    ConcurrentThreeStage::new(
        ThreeStageParams::new(n, m, r, k),
        Construction::MswDominant,
        MulticastModel::Msw,
    )
}

fn conn(src: (u32, u32), dsts: &[(u32, u32)]) -> MulticastConnection {
    MulticastConnection::new(
        Endpoint::new(src.0, src.1),
        dsts.iter().map(|&(p, w)| Endpoint::new(p, w)),
    )
    .unwrap()
}

/// Probe/commit overlap on one middle word: thread A validates middle 0
/// for out-module 1, parks at `PreCommit`, and the rival commits the
/// same word first. A's revalidation inside the CAS loop must see the
/// stolen wavelength, abort (one extra epoch pair), and the bounded
/// retry must land the route on middle 1 — both admitted, zero leaks.
#[test]
fn racing_commit_on_same_middle_word_forces_retry() {
    let mut net = contended_net();
    let trap = Arc::new(AtomicBool::new(true));
    let parked = Arc::new(Barrier::new(2));
    let resume = Arc::new(Barrier::new(2));
    {
        let (trap, parked, resume) = (trap.clone(), parked.clone(), resume.clone());
        net.set_pause_hook(Some(Arc::new(move |p: PausePoint| {
            if matches!(p, PausePoint::PreCommit { middle: 0 })
                && trap.swap(false, Ordering::AcqRel)
            {
                parked.wait();
                resume.wait();
            }
        })));
    }
    let net = Arc::new(net);

    // Thread A: src port 0 (module 0) → dest port 2 (out-module 1).
    let a = {
        let net = net.clone();
        std::thread::spawn(move || net.connect_shared(&conn((0, 0), &[(2, 0)])))
    };
    parked.wait(); // A has validated middle 0 and sits before its first CAS.

    // Rival (this thread): src port 2 (module 1) → dest port 3
    // (out-module 1). Same middle word (0 → out-module 1), and with
    // k=1 the word is now full.
    let b_route = net.connect_shared(&conn((2, 0), &[(3, 0)])).unwrap();
    assert_eq!(
        b_route.branches[0].middle, 0,
        "rival took the probed middle"
    );

    resume.wait();
    let a_route = a.join().unwrap().expect("retry must re-route, not fail");
    assert_ne!(
        a_route.branches[0].middle, 0,
        "stale probe committed over the rival"
    );

    // Exactly one aborted commit: epoch pairs = 2 admissions + 1 abort.
    let epoch = net.commit_epoch();
    assert_eq!(epoch.started, 3, "expected exactly one rolled-back commit");
    assert_eq!(epoch.aborted, 1);
    assert_eq!(epoch.started, epoch.finished);
    assert_eq!(net.active_connections(), 2);
    assert!(net.check_consistency().is_empty());

    // Exact rollback: tearing both down leaves no residue anywhere.
    net.disconnect_shared(Endpoint::new(0, 0)).unwrap();
    net.disconnect_shared(Endpoint::new(2, 0)).unwrap();
    assert_eq!(net.active_connections(), 0);
    assert!(net.middle_loads().iter().all(|&l| l == 0));
    assert!(net.check_consistency().is_empty());
}

/// Mid-fan-out kill: thread A commits its out-module-0 leg, parks
/// before the out-module-1 leg, and the rival steals that second word.
/// The multi-word commit must roll back newest-first (leg 0 undone,
/// input word released) and the retry must serve the whole fan-out from
/// an untouched middle switch.
#[test]
fn killed_multiword_commit_rolls_back_newest_first() {
    let mut net = contended_net();
    let trap = Arc::new(AtomicBool::new(true));
    let parked = Arc::new(Barrier::new(2));
    let resume = Arc::new(Barrier::new(2));
    {
        let (trap, parked, resume) = (trap.clone(), parked.clone(), resume.clone());
        net.set_pause_hook(Some(Arc::new(move |p: PausePoint| {
            if matches!(
                p,
                PausePoint::BeforeLeg {
                    middle: 0,
                    out_module: 1,
                    legs_committed: 1,
                }
            ) && trap.swap(false, Ordering::AcqRel)
            {
                parked.wait();
                resume.wait();
            }
        })));
    }
    let net = Arc::new(net);

    // Thread A: multicast src 0 → {port 1 (out-module 0), port 2
    // (out-module 1)} — a two-leg single-middle commit.
    let a = {
        let net = net.clone();
        std::thread::spawn(move || net.connect_shared(&conn((0, 0), &[(1, 0), (2, 0)])))
    };
    parked.wait(); // A committed leg (0 → om 0); its om-1 leg is pending.

    // Rival takes the pending word (middle 0 → out-module 1).
    let b_route = net.connect_shared(&conn((2, 0), &[(3, 0)])).unwrap();
    assert_eq!(b_route.branches[0].middle, 0);

    resume.wait();
    let a_route = a
        .join()
        .unwrap()
        .expect("fan-out must re-route after rollback");
    assert_eq!(a_route.branches.len(), 1, "single middle still covers it");
    assert_ne!(a_route.branches[0].middle, 0);
    assert_eq!(a_route.branches[0].legs.len(), 2);

    let epoch = net.commit_epoch();
    assert_eq!(epoch.started, 3, "expected exactly one rolled-back commit");
    assert_eq!(epoch.aborted, 1);
    assert_eq!(epoch.started, epoch.finished);
    assert!(net.check_consistency().is_empty());

    net.disconnect_shared(Endpoint::new(0, 0)).unwrap();
    net.disconnect_shared(Endpoint::new(2, 0)).unwrap();
    assert!(net.middle_loads().iter().all(|&l| l == 0));
    assert!(net.check_consistency().is_empty());
}

/// Seeded two-thread scheduler: every pause point draws a hold time
/// from one shared [`ChoiceStream`], stretching the probe→commit window
/// seed by seed while both threads hammer the same out-module with k=1.
/// Each round both threads rendezvous, connect concurrently — so both
/// probes validate middle 0 before either commit lands and the loser's
/// CAS revalidation must kill its in-flight commit — then rendezvous
/// again and tear down. Every connect must admit (the fabric is at the
/// bound and endpoints never clash), the occupancy matrix must be exact
/// after every seed, and across the sweep the scheduler must actually
/// kill commits (excess epoch pairs > 0).
#[test]
fn seeded_two_thread_storm_never_leaks() {
    const ROUNDS: u64 = 50;
    let mut killed_commits = 0u64;
    for seed in 0..8u64 {
        let mut net = contended_net();
        let choices = Arc::new(parking_lot::Mutex::new(ChoiceStream::new(seed)));
        {
            let choices = choices.clone();
            net.set_pause_hook(Some(Arc::new(move |_| {
                // A seeded hold inside the commit window. Sleeps, not
                // yields: sched_yield need not deschedule, a timed
                // sleep always hands the core to the rival.
                let hold = choices.lock().choose(8) as u64;
                std::thread::sleep(std::time::Duration::from_micros(hold * 40));
            })));
        }
        let net = Arc::new(net);
        // Two rendezvous per round: the first releases both connects
        // into the same window (single-core CI would otherwise run the
        // whole round of one worker before the other is scheduled);
        // the second keeps both routes live until both commits landed,
        // so the loser's revalidation sees the winner's word.
        let rendezvous = Arc::new(Barrier::new(2));
        let worker = |src: (u32, u32), dst: (u32, u32)| {
            let net = net.clone();
            let rendezvous = rendezvous.clone();
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    rendezvous.wait();
                    net.connect_shared(&conn(src, &[dst])).unwrap_or_else(|e| {
                        panic!("seed {seed} round {round}: src {src:?} refused: {e:?}")
                    });
                    rendezvous.wait();
                    net.disconnect_shared(Endpoint::new(src.0, src.1)).unwrap();
                }
            })
        };
        // Module-0 and module-1 sources, disjoint claim rows (port 2 is
        // t0's destination and t1's source — separate busy matrices),
        // both fanning into out-module 1: all contention is on the
        // middle link words.
        let t0 = worker((0, 0), (2, 0));
        let t1 = worker((2, 0), (3, 0));
        t0.join().unwrap();
        t1.join().unwrap();

        let epoch = net.commit_epoch();
        assert_eq!(epoch.started, epoch.finished, "seed {seed}: epoch torn");
        // 2 threads × ROUNDS × (connect + disconnect) epoch pairs, plus
        // one pair per killed commit.
        assert_eq!(epoch.started, 4 * ROUNDS + epoch.aborted, "seed {seed}");
        killed_commits += epoch.aborted;
        assert_eq!(net.active_connections(), 0, "seed {seed}");
        assert!(
            net.middle_loads().iter().all(|&l| l == 0),
            "seed {seed}: leaked wavelength"
        );
        let problems = net.check_consistency();
        assert!(problems.is_empty(), "seed {seed}: {problems:?}");
    }
    assert!(
        killed_commits > 0,
        "16 seeds of forced overlap never killed a commit — the \
         scheduler lost its teeth"
    );
}

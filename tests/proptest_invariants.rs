//! Cross-crate property tests on the synthesis pipeline's invariants.

use apiphany_repro::core::{Budget, Engine, Event, RunConfig};
use apiphany_repro::lang::anf::{alpha_eq, canonicalize};
use apiphany_repro::lang::parse_program;
use apiphany_repro::re::{cost_of, CostParams, ReContext};
use apiphany_repro::spec::fixtures::{fig4_witnesses, fig7_library};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// RE cost is deterministic given the seed, for every candidate of the
    /// running example.
    #[test]
    fn re_cost_is_seed_deterministic(seed in 0u64..1000) {
        let engine = Engine::from_witnesses(fig7_library(), fig4_witnesses());
        let query = engine.query("{ channel_name: Channel.name } → [Profile.email]").unwrap();
        let mut cfg = RunConfig::default();
        cfg.synthesis.budget = Budget::depth(7);
        let result = engine.run(&query, &cfg);
        let witnesses = engine.witnesses().to_vec();
        let ctx = ReContext::new(engine.semlib(), &witnesses);
        let params = CostParams { rounds: 3, seed, ..CostParams::default() };
        for r in &result.ranked {
            let a = cost_of(&ctx, &r.program, &query, &params);
            let b = cost_of(&ctx, &r.program, &query, &params);
            prop_assert_eq!(a.total(), b.total());
        }
    }

    /// The session event stream agrees with the drained `RunResult`: same
    /// candidate set, same generation-time ranks, regardless of RE seed
    /// and candidate cap.
    #[test]
    fn event_stream_ranks_match_drained_result(seed in 0u64..500, cap in 1usize..6) {
        let engine = Engine::from_witnesses(fig7_library(), fig4_witnesses());
        let query = engine.query("{ channel_name: Channel.name } → [Profile.email]").unwrap();
        let mut cfg = RunConfig::default();
        cfg.synthesis.budget = Budget { max_candidates: Some(cap), ..Budget::depth(7) };
        cfg.cost.seed = seed;

        let mut streamed: Vec<(usize, usize, f64)> = Vec::new(); // (r_orig, r_re_now, cost)
        let mut drained = None;
        for event in engine.session(&query, &cfg).unwrap() {
            match event {
                Event::CandidateFound { r_orig, r_re_now, cost, .. } => {
                    streamed.push((r_orig, r_re_now, cost));
                }
                Event::Finished(result) => drained = Some(result),
                _ => {}
            }
        }
        let result = drained.expect("session finishes");
        // One event per ranked candidate, matching gen index, rank, cost.
        prop_assert_eq!(streamed.len(), result.ranked.len());
        for (r_orig, r_re_now, cost) in streamed {
            let by_gen = result
                .ranked
                .iter()
                .find(|r| r.gen_index + 1 == r_orig)
                .expect("streamed candidate present in final ranking");
            prop_assert_eq!(by_gen.rank_at_generation, r_re_now);
            prop_assert_eq!(by_gen.cost, cost);
        }
        // And the blocking wrapper reproduces the same ranking.
        let rerun = engine.run(&query, &cfg);
        prop_assert_eq!(rerun.ranked.len(), result.ranked.len());
        for (a, b) in rerun.ranked.iter().zip(result.ranked.iter()) {
            prop_assert_eq!(a.gen_index, b.gen_index);
            prop_assert_eq!(a.rank_at_generation, b.rank_at_generation);
            prop_assert_eq!(a.cost, b.cost);
            prop_assert!(alpha_eq(&a.program, &b.program));
        }
    }

    /// Canonicalization is idempotent and stable under re-parsing.
    #[test]
    fn canonicalization_is_stable(rename in "[a-z]{2,8}") {
        let text = format!(
            "\\{rename} → {{\n  c ← c_list()\n  if c.name = {rename}\n  return c.id\n}}"
        );
        let p = parse_program(&text).unwrap();
        let q = parse_program(&p.to_string()).unwrap();
        prop_assert!(alpha_eq(&p, &q));
        prop_assert_eq!(canonicalize(&p), canonicalize(&q));
    }
}

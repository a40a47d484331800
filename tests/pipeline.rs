//! End-to-end integration tests on the paper's running example (Fig. 2-11):
//! analysis → TTN → synthesis → lifting → type checking → RE ranking.

use apiphany_repro::core::{Engine, RunConfig};
use apiphany_repro::lang::anf::alpha_eq;
use apiphany_repro::lang::parse_program;
use apiphany_repro::mining::{Granularity, MiningConfig};
use apiphany_repro::spec::fixtures::{fig4_witnesses, fig7_library};
use apiphany_repro::ttn::BuildOptions;

fn engine() -> Engine {
    Engine::from_witnesses(fig7_library(), fig4_witnesses())
}

fn cfg() -> RunConfig {
    let mut cfg = RunConfig::default();
    cfg.synthesis.budget = apiphany_repro::core::Budget::depth(7);
    cfg
}

#[test]
fn running_example_end_to_end() {
    let engine = engine();
    let query = engine.query("{ channel_name: Channel.name } → [Profile.email]").unwrap();
    let result = engine.run(&query, &cfg());
    let gold = parse_program(
        r"\channel_name → {
            c ← c_list()
            if c.name = channel_name
            uid ← c_members(channel=c.id)
            let u = u_info(user=uid)
            return u.profile.email
        }",
    )
    .unwrap();
    let (r_orig, r_re, r_to) = result.ranks_of(&gold).expect("gold found");
    assert_eq!((r_orig, r_re, r_to), (2, 1, 1), "RE promotes the gold to rank 1");
}

#[test]
fn ablations_lose_the_running_example() {
    // §7.2: without mined types the solution is either drowned (Syn) or
    // ill-typed (Loc).
    let gold = parse_program(
        r"\channel_name → {
            c ← c_list()
            if c.name = channel_name
            uid ← c_members(channel=c.id)
            let u = u_info(user=uid)
            return u.profile.email
        }",
    )
    .unwrap();
    for granularity in [Granularity::LocationOnly, Granularity::Syntactic] {
        let mining = MiningConfig { granularity, ..MiningConfig::default() };
        let engine = Engine::from_witnesses_with(
            fig7_library(),
            fig4_witnesses(),
            &mining,
            &BuildOptions::default(),
        );
        let found = engine
            .query("{ channel_name: Channel.name } → [Profile.email]")
            .ok()
            .map(|q| engine.run(&q, &cfg()))
            .and_then(|r| r.ranks_of(&gold));
        match granularity {
            // Location types: c_members's output never connects to
            // u_info's input, so the gold is ill-typed (never found).
            Granularity::LocationOnly => assert_eq!(found, None),
            // Syntactic types: every String is one type; the engine may
            // or may not surface the gold in the flood, but if it does,
            // its generation rank is worse than with mined types (2).
            Granularity::Syntactic => {
                if let Some((r_orig, _, _)) = found {
                    assert!(r_orig > 2, "syn ablation found gold at {r_orig}");
                }
            }
            Granularity::Mined => unreachable!(),
        }
    }
}

#[test]
fn every_candidate_is_well_typed_and_distinct() {
    use apiphany_repro::lang::anf::canonicalize;
    use apiphany_repro::synth::type_check;

    let engine = engine();
    let query = engine.query("{ uid: User.id } → [Channel]").unwrap();
    let result = engine.run(&query, &cfg());
    let mut seen = std::collections::HashSet::new();
    for r in &result.ranked {
        type_check(engine.semlib(), &r.program, &query).expect("candidate type-checks");
        assert!(seen.insert(canonicalize(&r.program)), "no duplicate candidates");
    }
}

#[test]
fn printed_candidates_reparse_alpha_equal() {
    let engine = engine();
    let query = engine.query("{ channel_name: Channel.name } → [Profile.email]").unwrap();
    let result = engine.run(&query, &cfg());
    assert!(!result.ranked.is_empty());
    for r in &result.ranked {
        let printed = r.program.to_string();
        let back = parse_program(&printed).expect("printer output parses");
        assert!(alpha_eq(&back, &r.program));
    }
}

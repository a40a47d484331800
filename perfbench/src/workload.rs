//! The three workloads: which services each client owns, which queries
//! it sends, and in what (seeded) order.
//!
//! A workload is a list of clients; each client owns private copies of
//! its services and runs *passes*: one pass is the workload's query mix in
//! a seeded order (table2 splits its mix between its two clients). The
//! load generator keeps starting passes until the measurement window has
//! elapsed, so every run does whole passes and every metric is taken over
//! the same mix.

use apiphany_repro::benchmarks::{benchmarks, Api};

/// A service a client registers: one of the paper's three simulated APIs
/// (engines built by the analysis phase against the sandbox) or the
/// Fig. 7 running example (mined from its recorded Fig. 4 witnesses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceKind {
    Api(Api),
    Fig7,
}

impl ServiceKind {
    pub fn name(self) -> &'static str {
        match self {
            ServiceKind::Api(api) => api.name(),
            ServiceKind::Fig7 => "fig7",
        }
    }
}

/// One type query as sent over the wire.
#[derive(Debug, Clone)]
pub struct QueryDef {
    /// Stable key of the query in `expected.tsv`, e.g. `2.6@5`.
    pub key: String,
    pub service: ServiceKind,
    /// The query in the paper's syntax, e.g. `{ x: A.id } → [B]`.
    pub text: String,
    pub depth: usize,
    pub threads: usize,
    /// The gold program: the paper's solution from the Table 2 defs, or
    /// the Fig. 2 program for the running example.
    pub gold: Option<String>,
}

impl QueryDef {
    /// The `{ name: type, ... }` inputs and the output type of `text`.
    pub fn signature(&self) -> (Vec<(String, String)>, String) {
        let (inputs, output) = self.text.split_once('→').expect("query text has an arrow");
        let inputs = inputs.trim().trim_start_matches('{').trim_end_matches('}');
        let params = inputs
            .split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(|p| {
                let (name, ty) = p.split_once(':').expect("input is name: type");
                (name.trim().to_string(), ty.trim().to_string())
            })
            .collect();
        (params, output.trim().to_string())
    }
}

/// One step of a client's pass.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// `evict` then `register` the client's copy of `services[i]`.
    Reregister(usize),
    /// Run `queries[i]`.
    Query(usize),
}

/// A workload: the queries, the services every client owns, and how a
/// pass is ordered.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub clients: usize,
    pub services: Vec<ServiceKind>,
    pub queries: Vec<QueryDef>,
    kind: Kind,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Table2,
    Deep,
    Wide,
}

pub const NAMES: [&str; 3] = ["table2", "deep", "wide"];

/// The Fig. 2 solution of the running example, in the Fig. 7 vocabulary.
const FIG7_EMAILS_GOLD: &str = r"\channel_name → {
    c ← c_list()
    if c.name = channel_name
    uid ← c_members(channel=c.id)
    let u = u_info(user=uid)
    return u.profile.email
}";

/// The one-call solution of `{ } → [Channel]`.
const FIG7_CHANNELS_GOLD: &str = r"\ → {
    let x = c_list()
    x
}";

/// The 32 Table 2 tasks split into two halves of 16 that take the same
/// serial time at their `table2_depth` (about 23.3 s each on a 2-core
/// x86-64 box), so the two table2 clients stay busy for the same time
/// whichever half the seed gives them.
const TABLE2_HALVES: [&[&str]; 2] = [
    &[
        "1.2", "1.3", "1.5", "1.6", "2.1", "2.2", "2.3", "2.4", "2.9", "2.11", "2.12", "2.13",
        "3.2", "3.4", "3.6", "3.10",
    ],
    &[
        "1.1", "1.4", "1.7", "1.8", "2.5", "2.6", "2.7", "2.8", "2.10", "3.1", "3.3", "3.5", "3.7",
        "3.8", "3.9", "3.11",
    ],
];

/// The Table 2 depth of a benchmark: the length of its gold's TTN path
/// when that is at most 5, otherwise 4 (every run then exhausts the net
/// to that depth instead of racing a wall clock).
fn table2_depth(id: &str) -> usize {
    match id {
        "3.1" => 2,
        "2.4" | "2.7" | "2.9" | "3.3" | "3.4" | "3.6" | "3.7" | "3.9" => 3,
        "1.5" | "1.6" | "2.3" | "2.6" | "2.10" | "2.12" | "2.13" | "3.2" | "3.5" | "3.11" => 5,
        _ => 4,
    }
}

fn table2_query(id: &str, depth: usize, threads: usize) -> QueryDef {
    let bench = benchmarks()
        .into_iter()
        .find(|b| b.id == id)
        .expect("a Table 2 id");
    QueryDef {
        key: format!("{id}@{depth}/t{threads}"),
        service: ServiceKind::Api(bench.api),
        text: bench.query.to_string(),
        depth,
        threads,
        gold: Some(bench.gold.to_string()),
    }
}

/// The workload called `name`, or `None` for an unknown name.
pub fn workload(name: &str) -> Option<Workload> {
    let slack = ServiceKind::Api(Api::Slack);
    let stripe = ServiceKind::Api(Api::Stripe);
    let square = ServiceKind::Api(Api::Square);
    Some(match name {
        "table2" => Workload {
            name: "table2",
            clients: 2,
            services: vec![slack, stripe, square],
            queries: benchmarks()
                .iter()
                .map(|b| table2_query(b.id, table2_depth(b.id), 1))
                .collect(),
            kind: Kind::Table2,
        },
        "deep" => Workload {
            name: "deep",
            clients: 1,
            services: vec![slack, stripe],
            queries: vec![table2_query("1.1", 6, 2), table2_query("2.6", 5, 2)],
            kind: Kind::Deep,
        },
        "wide" => Workload {
            name: "wide",
            clients: 2,
            services: vec![ServiceKind::Fig7],
            queries: vec![
                QueryDef {
                    key: "fig7.emails@12/t1".into(),
                    service: ServiceKind::Fig7,
                    text: "{ channel_name: Channel.name } → [Profile.email]".into(),
                    depth: 12,
                    threads: 1,
                    gold: Some(FIG7_EMAILS_GOLD.into()),
                },
                QueryDef {
                    key: "fig7.channels@9/t1".into(),
                    service: ServiceKind::Fig7,
                    text: "{ } → [Channel]".into(),
                    depth: 9,
                    threads: 1,
                    gold: Some(FIG7_CHANNELS_GOLD.into()),
                },
            ],
            kind: Kind::Wide,
        },
        _ => return None,
    })
}

impl Workload {
    /// The index into `services` of the service `query` runs against.
    pub fn service_of(&self, query: usize) -> usize {
        let kind = self.queries[query].service;
        self.services
            .iter()
            .position(|&s| s == kind)
            .expect("query's service is owned")
    }

    /// Client `client`'s pass number `pass` under `seed`, in a seeded
    /// order.
    ///
    /// * table2: one of the two halves of the task mix (the seed and the
    ///   pass decide which client gets which, so the clients together run
    ///   all 32 tasks every pass), preceded for a seeded quarter of each
    ///   service's queries by a re-registration of that service;
    /// * deep and wide: the whole mix, rotated by `seed + pass + client`,
    ///   so consecutive passes run it in both orders and the two wide
    ///   clients start on different queries.
    pub fn pass(&self, seed: u64, client: usize, pass: usize) -> Vec<Op> {
        let n = self.queries.len();
        let turn = (seed as usize).wrapping_add(pass + client);
        if !matches!(self.kind, Kind::Table2) {
            return (0..n).map(|i| Op::Query((i + turn) % n)).collect();
        }
        let half = TABLE2_HALVES[turn % 2];
        let mut order: Vec<usize> = (0..n)
            .filter(|&q| {
                self.queries[q]
                    .key
                    .split('@')
                    .next()
                    .is_some_and(|id| half.contains(&id))
            })
            .collect();
        let mut rng = Rng::new(seed, client as u64, pass as u64);
        rng.shuffle(&mut order);
        let mut reregister = vec![false; n];
        for s in 0..self.services.len() {
            let mut own: Vec<usize> = order
                .iter()
                .copied()
                .filter(|&q| self.service_of(q) == s)
                .collect();
            rng.shuffle(&mut own);
            for &q in own.iter().take((own.len() + 1) / 4) {
                reregister[q] = true;
            }
        }
        let mut ops = Vec::with_capacity(order.len() * 5 / 4);
        for q in order {
            if reregister[q] {
                ops.push(Op::Reregister(self.service_of(q)));
            }
            ops.push(Op::Query(q));
        }
        ops
    }

    /// Whole passes every client runs at least, however short the window:
    /// deep and wide run two so both query orders occur in every run.
    pub fn min_passes(&self) -> usize {
        match self.kind {
            Kind::Table2 => 1,
            Kind::Deep | Kind::Wide => 2,
        }
    }
}

/// SplitMix64 over (seed, client, pass): the only randomness in a run.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, client: u64, pass: u64) -> Rng {
        let mut rng = Rng(seed ^ 0x5eed_0000_0000_0000);
        for part in [client, pass] {
            rng.0 ^= rng.next().wrapping_add(part);
        }
        rng
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

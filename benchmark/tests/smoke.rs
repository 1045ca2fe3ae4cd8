//! Runs all four workloads with `--smoke` and holds the emitted metric
//! names equal to the ones `BENCHMARK.json` declares, in both directions.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

// ---------------------------------------------------------------- mini JSON

/// Just enough JSON to read `BENCHMARK.json` and the benchmark's summary
/// line (the build has no crates.io access).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(members) => members
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key `{key}`")),
            other => panic!("`{key}` looked up in non-object {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("keys of non-object {other:?}"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("items of non-array {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value();
    p.skip_ws();
    assert_eq!(p.pos, p.bytes.len(), "trailing data after JSON document");
    v
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) {
        assert!(
            self.bytes[self.pos..].starts_with(lit.as_bytes()),
            "expected `{lit}` at byte {}",
            self.pos
        );
        self.pos += lit.len();
    }

    fn peek(&mut self) -> u8 {
        self.skip_ws();
        *self.bytes.get(self.pos).expect("unexpected end of JSON")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'n' => {
                self.eat("null");
                Json::Null
            }
            b't' => {
                self.eat("true");
                Json::Bool(true)
            }
            b'f' => {
                self.eat("false");
                Json::Bool(false)
            }
            b'"' => Json::Str(self.string()),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                while self.peek() != b']' {
                    if !items.is_empty() {
                        self.eat(",");
                    }
                    items.push(self.value());
                }
                self.pos += 1;
                Json::Arr(items)
            }
            b'{' => {
                self.pos += 1;
                let mut members = Vec::new();
                while self.peek() != b'}' {
                    if !members.is_empty() {
                        self.eat(",");
                        self.skip_ws();
                    }
                    let key = self.string();
                    self.skip_ws();
                    self.eat(":");
                    members.push((key, self.value()));
                }
                self.pos += 1;
                Json::Obj(members)
            }
            _ => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number `{text}` at byte {start}")),
                )
            }
        }
    }

    /// Strings here never contain escapes other than `\"` and `\\`.
    fn string(&mut self) -> String {
        self.eat("\"");
        let mut out = Vec::new();
        loop {
            let b = self.bytes[self.pos];
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).unwrap(),
                b'\\' => {
                    out.push(self.bytes[self.pos]);
                    self.pos += 1;
                }
                other => out.push(other),
            }
        }
    }
}

// ------------------------------------------------------------------ helpers

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Json {
    let path = manifest_dir().join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
}

fn declared(section: &Json) -> BTreeSet<String> {
    section
        .items()
        .iter()
        .map(|m| m.get("name").str().to_string())
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// One `--smoke` run; returns the summary line.
fn smoke(workload: &str, trace: bool) -> Json {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{workload}-{}", u8::from(trace)));
    let output = Command::new(env!("CARGO_BIN_EXE_surfbench"))
        .args(["run", "--smoke", "--seed", "7", "--seconds", "1"])
        .args([
            "--workload",
            workload,
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("surfbench starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} exited with {:?}:\n{stdout}",
        output.status
    );
    let leftovers: Vec<_> = std::fs::read_dir(&out)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("tmp-"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "{workload} left scratch directories behind: {leftovers:?}"
    );
    assert!(
        out.join(format!("trace-{workload}.json")).is_file(),
        "{workload} wrote no trace file"
    );
    parse(stdout.lines().last().expect("a summary line"))
}

/// The summary of a run carries exactly the four contract keys, passed its
/// own output checks, and names exactly the `declared` metrics.
fn check_summary(workload: &str, summary: &Json, declared: &Json) {
    assert_eq!(
        summary.keys(),
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(*summary.get("correct"), Json::Bool(true), "{workload}");
    assert!(summary.get("attempted").num() >= 1.0, "{workload}");
    assert_eq!(summary.get("failed").num(), 0.0, "{workload}");
    let metrics = summary.get("metrics");
    let emitted: BTreeSet<String> = metrics.keys().into_iter().map(str::to_string).collect();
    assert_eq!(
        emitted,
        self::declared(declared),
        "{workload}: emitted vs declared metric names"
    );
    for m in declared.items() {
        let (name, unit) = (m.get("name").str(), m.get("unit").str());
        assert!(valid_name(name), "bad metric name `{name}`");
        let got = metrics.get(name);
        assert_eq!(got.keys(), ["value", "unit"], "{workload} {name}");
        assert_eq!(got.get("unit").str(), unit, "{workload} {name}");
        assert!(got.get("value").num().is_finite(), "{workload} {name}");
    }
}

fn check_workload(workload: &str) {
    let bench = benchmark_json();
    let names: Vec<&str> = bench
        .get("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert!(
        names.contains(&workload),
        "`{workload}` is not declared in BENCHMARK.json"
    );
    let untraced = smoke(workload, false);
    check_summary(workload, &untraced, bench.get("end_to_end"));
    for m in bench.get("end_to_end").items() {
        let name = m.get("name").str();
        assert!(
            untraced.get("metrics").get(name).get("value").num() > 0.0,
            "{workload}: {name} is 0"
        );
    }
    check_summary(workload, &smoke(workload, true), bench.get("per_layer"));
}

// -------------------------------------------------------------------- tests

#[test]
fn rank_small_emits_the_declared_metrics() {
    check_workload("rank-small");
}

#[test]
fn apps_cross_emits_the_declared_metrics() {
    check_workload("apps-cross");
}

#[test]
fn spill_recover_emits_the_declared_metrics() {
    check_workload("spill-recover");
}

#[test]
fn serve_mix_emits_the_declared_metrics() {
    check_workload("serve-mix");
}

#[test]
fn benchmark_json_declares_exactly_the_four_workloads() {
    let bench = benchmark_json();
    assert_eq!(
        bench.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let names: Vec<&str> = bench
        .get("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(
        names,
        ["rank-small", "apps-cross", "spill-recover", "serve-mix"]
    );
    for w in bench.get("workloads").items() {
        assert_eq!(w.keys(), ["name", "why"]);
        let why = w.get("why").str();
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why of {} is too long",
            w.get("name").str()
        );
    }
    for m in bench.get("end_to_end").items() {
        assert_eq!(m.keys(), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").num();
        assert!(
            bound > 0.0 && bound <= 0.25,
            "bound of {}",
            m.get("name").str()
        );
    }
    let setup = bench
        .get("end_to_end")
        .items()
        .iter()
        .find(|m| m.get("name").str() == "setup_s");
    let setup = setup.expect("setup_s is declared");
    assert_eq!(
        (setup.get("unit").str(), setup.get("better").str()),
        ("s", "lower")
    );
    for m in bench.get("per_layer").items() {
        assert_eq!(m.keys(), ["name", "unit", "better"]);
    }
    // An unknown workload is refused, not silently run.
    let refused = Command::new(env!("CARGO_BIN_EXE_surfbench"))
        .args(["run", "--workload", "no-such-workload"])
        .output()
        .unwrap();
    assert_eq!(refused.status.code(), Some(2));
}

/// Identifiers the benchmark may import from the program's crates: the
/// stable surface of `benchmark/README.md`, plus the modules they live in.
const STABLE_SURFACE: &[&str] = &[
    // crates and modules
    "surfer_apps",
    "surfer_cluster",
    "surfer_core",
    "surfer_graph",
    "surfer_obs",
    "surfer_partition",
    "surfer_serve",
    "generators",
    "social",
    "components",
    "pagerank",
    "recommender",
    "reverse",
    "two_hop",
    // graph
    "msn_like",
    "MsnScale",
    "CsrGraph",
    "GraphBuilder",
    // partition
    "RecursivePartitioner",
    "hash_partition",
    "place",
    "PartitionedGraph",
    "PlacedPartitioning",
    "PartitionSketch",
    "PlacementPolicy",
    "write_partitioned",
    "load_partitioned",
    // cluster
    "ClusterConfig",
    "Topology",
    "SimCluster",
    "ExecReport",
    "MachineId",
    "SimDuration",
    "SimTime",
    "FaultPlan",
    "MachineCrash",
    // core
    "Surfer",
    "SurferResult",
    "SurferRun",
    "PropagationEngine",
    "EngineOptions",
    "MemoryBudget",
    "working_set_bytes",
    "run_with_recovery",
    "RecoveryConfig",
    // apps
    "NetworkRanking",
    "ConnectedComponents",
    "RecommenderSystem",
    "TwoHopFriends",
    "ReverseLinkGraph",
    "PageRankPropagation",
    "ExactOutput",
    "PageRankOutput",
    "ComponentOutput",
    "RecommenderOutput",
    "TwoHopOutput",
    "ReversedGraph",
    // serve
    "JobManager",
    "JobSpec",
    "JobTask",
    "PropagationJob",
    "CacheKey",
    "ServeConfig",
    "StepOutcome",
    "TenantId",
    // obs
    "ObsSession",
    "TraceReport",
    "SpanRec",
];

/// Method and function names ROADMAP item 3 is about to collapse.
const UNSTABLE: &[&str] = &[
    "run_iteration",
    "_counted",
    "_vectorized",
    "_discounted",
    "_with_faults",
];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap().flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn sources_import_only_the_stable_surface() {
    let mut files = Vec::new();
    rust_sources(&manifest_dir().join("src"), &mut files);
    assert!(files.len() >= 10, "found only {files:?}");
    for file in files {
        // Comments may name anything.
        let code: String = std::fs::read_to_string(&file)
            .unwrap()
            .lines()
            .map(|l| l.split("//").next().unwrap_or(""))
            .collect::<Vec<_>>()
            .join("\n");
        for word in UNSTABLE {
            assert!(
                !code.contains(word),
                "{}: uses unstable `{word}`",
                file.display()
            );
        }
        // Every mention of a program crate is a `use` statement, and every
        // identifier in it is on the list.
        let mut rest = code.as_str();
        while let Some(at) = rest.find("surfer_") {
            let before = &rest[..at];
            let statement_start = before.rfind([';', '{', '}']).map_or(0, |i| i + 1);
            let head = before[statement_start..].trim();
            assert!(
                head == "use" || head == "pub use",
                "{}: `surfer_…` outside a use statement (after `{head}`)",
                file.display()
            );
            let end = at + rest[at..].find(';').expect("use statement ends");
            for ident in rest[at..end].split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
                assert!(
                    ident.is_empty() || ident == "self" || STABLE_SURFACE.contains(&ident),
                    "{}: imports `{ident}`, which is not on the stable surface",
                    file.display()
                );
            }
            rest = &rest[end..];
        }
    }
}

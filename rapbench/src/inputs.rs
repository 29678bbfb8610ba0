//! Each workload's inputs, generated from the seed alone, and their
//! fingerprints.

use cdnsim::CdnTopology;
use datasets::{Dataset, RapmdConfig, RapmdGenerator};
use loadgen::{FrameBook, SynthConfig};

use crate::spec::{DaemonLoad, INJECTION};
use crate::stats::Fnv;

/// Frames per tenant: one simulated day, so a replay that wraps keeps its
/// diurnal phase.
pub const BOOK_STEPS: usize = 1440;

/// A daemon workload's traffic: four tenants' pre-rendered observe lines
/// plus the pattern each tenant's injections suppress.
pub struct Book {
    pub frames: FrameBook,
    /// Per tenant, the injected root as rapd renders RAPs, e.g.
    /// `"(L3, *, *, *)"`.
    pub roots: Vec<String>,
}

impl Book {
    pub fn build(load: &DaemonLoad, seed: u64) -> Book {
        let config = SynthConfig {
            tenants: 4,
            steps: BOOK_STEPS,
            seed,
            locations: 8,
            access_types: 3,
            oses: 3,
            websites: 8,
            warmup: INJECTION.warmup,
            inject_every: if load.inject { INJECTION.every } else { 0 },
            inject_duration: INJECTION.duration,
        };
        let frames = FrameBook::build(&config);
        let roots = (0..config.tenants)
            .map(|t| injected_root(&config, t))
            .collect();
        Book { frames, roots }
    }

    pub fn schemas(&self) -> Vec<String> {
        self.frames
            .tenants
            .iter()
            .map(|t| t.schema_line.clone())
            .collect()
    }

    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        for t in &self.frames.tenants {
            h.bytes(t.schema_line.as_bytes());
            for line in &t.lines {
                h.bytes(line.as_bytes());
                h.bytes(b"\n");
            }
        }
        for root in &self.roots {
            h.bytes(root.as_bytes());
        }
        h.finish()
    }
}

/// The heaviest location of tenant `t`'s topology, which `loadgen`'s
/// synthesis suppresses on injected steps. The tenant seed derivation
/// mirrors `loadgen::synth`; a drift there changes the fingerprint.
fn injected_root(config: &SynthConfig, t: usize) -> String {
    let seed = config.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let topology = CdnTopology::builder()
        .locations(config.locations)
        .access_types(config.access_types)
        .oses(config.oses)
        .websites(config.websites)
        .build(seed);
    let schema = topology.schema();
    let attr = schema.attr_ids().next().expect("schema has attributes");
    let heaviest = schema
        .attribute(attr)
        .element_ids()
        .max_by(|a, b| {
            topology
                .weight(attr, *a)
                .total_cmp(&topology.weight(attr, *b))
        })
        .expect("attribute has elements");
    let spec = format!(
        "{}={}",
        schema.attribute(attr).name(),
        schema.attribute(attr).element_name(heaviest)
    );
    schema
        .parse_combination(&spec)
        .expect("element drawn from the schema itself")
        .to_string()
}

/// RAPMD datasets per localize-rapmd run. Per-case cost is heavy-tailed
/// (3-D RAPs push the search deep), so one 105-case set is too few for a
/// run to repeat across seeds.
pub const RAPMD_SETS: u64 = 20;

/// Dataset `set` of the localize-rapmd inputs: the paper's 105 failures
/// on its 33×4×4×20 topology, from a seed derived from the run's.
pub fn rapmd(seed: u64, set: u64) -> Dataset {
    RapmdGenerator::new(RapmdConfig::default())
        .generate(seed.wrapping_mul(RAPMD_SETS).wrapping_add(set))
}

pub fn rapmd_fingerprint(dataset: &Dataset) -> u64 {
    let mut h = Fnv::default();
    for case in &dataset.cases {
        let frame = &case.frame;
        for row in frame.iter() {
            for e in row.elements() {
                h.bytes(&e.0.to_le_bytes());
            }
            h.bytes(&row.v().to_bits().to_le_bytes());
            h.bytes(&row.f().to_bits().to_le_bytes());
            h.bytes(&[u8::from(row.label() == Some(true))]);
        }
        for truth in &case.truth {
            h.bytes(truth.to_string().as_bytes());
        }
    }
    h.finish()
}

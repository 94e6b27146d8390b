//! Output checks: digests of modeled outputs and the stored reference.
//!
//! A digest folds every modeled number a run produces — per-kernel modeled
//! time, cycles, flops, L1/L2 accesses and hits, warp memory ops, transfer
//! time and bytes, per-step kernel counts — together with the training
//! losses (or inference losses and modeled latencies). Host timings never
//! enter a digest. A change that moves any modeled number changes the
//! digest, so it fails the run instead of counting as a speed-up.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use gnnmark_profiler::WorkloadProfile;

/// The stored reference, compiled into the binary so a run checks against
/// exactly the file that sits beside the sources.
const REFERENCE: &str = include_str!("../reference.txt");

/// FNV-1a folded a 64-bit word at a time (bytes only for names), which
/// keeps digesting cheap next to the simulation it checks.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Digest of one workload's modeled outputs, plus the counts that must
/// repeat exactly between two runs of the same inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Hash over every modeled number and loss.
    pub hash: u64,
    /// Kernels simulated.
    pub kernels: u64,
    /// Modeled L1 accesses.
    pub l1_accesses: u64,
    /// Modeled warp-level memory instructions.
    pub warp_ops: u64,
}

impl Digest {
    /// Digest of a profile plus the run's losses and any further modeled
    /// values (quality metric, per-step modeled latencies).
    pub fn of(profile: &WorkloadProfile, losses: &[f64], extra: &[f64]) -> Digest {
        let mut h = Fnv::new();
        let (mut l1, mut warp_ops) = (0u64, 0u64);
        for k in &profile.kernels {
            h.bytes(k.kernel.as_bytes());
            h.f64(k.time_ns);
            h.f64(k.cycles);
            h.f64(k.active_cycles);
            h.u64(k.flops);
            h.u64(k.iops);
            h.u64(k.warp_instrs);
            h.u64(k.threads);
            let m = &k.memory;
            for v in [
                m.l1_accesses,
                m.l1_hits,
                m.l2_accesses,
                m.l2_hits,
                m.dram_bytes,
                m.divergent_warp_ops,
                m.warp_ops,
            ] {
                h.u64(v);
            }
            l1 += m.l1_accesses;
            warp_ops += m.warp_ops;
        }
        h.f64(profile.transfer_time_ns);
        h.f64(profile.mean_sparsity);
        h.u64(profile.h2d_bytes);
        h.u64(profile.h2d_compressed_bytes);
        h.u64(profile.steps);
        for &n in &profile.step_kernels {
            h.u64(u64::from(n));
        }
        for &v in losses.iter().chain(extra) {
            h.f64(v);
        }
        Digest {
            hash: h.0,
            kernels: profile.kernels.len() as u64,
            l1_accesses: l1,
            warp_ops,
        }
    }

    fn line(&self, dataset_seed: u64, section: &str, key: &str) -> String {
        format!(
            "{dataset_seed} {section} {key} {:016x} {} {} {}",
            self.hash, self.kernels, self.l1_accesses, self.warp_ops
        )
    }
}

/// Which outputs a digest covers: a training run (`train`, which is also
/// what a replay on the capture device must reproduce), a forward-only
/// inference run (`infer`), or a replay on another device (`replay`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Section {
    /// Live training on the V100, or its replay on the same device.
    Train,
    /// Mini-batch inference.
    Infer,
    /// Replay of the training stream on a non-capture device.
    Replay,
}

impl Section {
    fn label(self) -> &'static str {
        match self {
            Section::Train => "train",
            Section::Infer => "infer",
            Section::Replay => "replay",
        }
    }

    fn parse(s: &str) -> Option<Section> {
        match s {
            "train" => Some(Section::Train),
            "infer" => Some(Section::Infer),
            "replay" => Some(Section::Replay),
            _ => None,
        }
    }
}

/// Stored digests keyed by (dataset seed, section, key).
pub struct Reference {
    entries: BTreeMap<(u64, Section, String), u64>,
}

impl Reference {
    /// Parses the compiled-in reference file.
    pub fn load() -> Reference {
        let mut entries = BTreeMap::new();
        for line in REFERENCE.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let parsed = (|| {
                let seed = f.first()?.parse().ok()?;
                let section = Section::parse(f.get(1)?)?;
                let key = (*f.get(2)?).to_string();
                let hash = u64::from_str_radix(f.get(3)?, 16).ok()?;
                Some(((seed, section, key), hash))
            })();
            let (k, v) = parsed.unwrap_or_else(|| panic!("malformed reference line: {line}"));
            entries.insert(k, v);
        }
        Reference { entries }
    }

    /// `Ok` when the digest matches the stored one; otherwise a message
    /// naming the mismatch (or the missing entry).
    pub fn check(
        &self,
        dataset_seed: u64,
        section: Section,
        key: &str,
        digest: &Digest,
    ) -> Result<(), String> {
        match self.entries.get(&(dataset_seed, section, key.to_string())) {
            Some(&want) if want == digest.hash => Ok(()),
            Some(&want) => Err(format!(
                "{} {key} (dataset seed {dataset_seed}): modeled outputs digest {:016x}, reference {want:016x}",
                section.label(),
                digest.hash
            )),
            None => Err(format!(
                "{} {key}: no reference for dataset seed {dataset_seed}",
                section.label()
            )),
        }
    }
}

/// Accumulates reference lines while blessing.
#[derive(Default)]
pub struct Blessing {
    text: String,
}

impl Blessing {
    /// Adds one digest.
    pub fn add(&mut self, dataset_seed: u64, section: Section, key: &str, digest: &Digest) {
        let _ = writeln!(
            self.text,
            "{}",
            digest.line(dataset_seed, section.label(), key)
        );
    }

    /// The file body, with its header.
    pub fn finish(self) -> String {
        format!(
            "# Reference digests of modeled outputs, written by `perfbench --bless`.\n\
             # dataset_seed section key fnv1a kernels l1_accesses warp_ops\n{}",
            self.text
        )
    }
}

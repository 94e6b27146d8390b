//! Everything a run derives from `--seed`.
//!
//! The program under test only ever sees the generated inputs: the dataset
//! seed the workloads are built with, and the workload and device of each
//! served job. The same benchmark seed always yields the same inputs.

use gnnmark_workloads::WorkloadKind;

/// Dataset seeds a benchmark seed maps onto (`seed % 8`). Every one of them
/// has stored reference outputs in `reference.txt`.
pub const DATASET_SEEDS: [u64; 8] = [42, 7, 1234, 2021, 31337, 8080, 99, 555];

/// A benchmark seed held out from development: it maps to a dataset seed no
/// other benchmark seed reaches, so a claimed gain can be confirmed on inputs
/// that were never used while the change was written.
pub const HELD_OUT_SEED: u64 = 2_718_281;
const HELD_OUT_DATASET_SEED: u64 = 161_803;

/// Every dataset seed with stored reference outputs.
pub fn reference_dataset_seeds() -> Vec<u64> {
    let mut seeds = DATASET_SEEDS.to_vec();
    seeds.push(HELD_OUT_DATASET_SEED);
    seeds
}

/// One device configuration of the sweep and of served jobs. The fields
/// mirror the campaign spec's config object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Device {
    /// Config name, unique within the sweep.
    pub name: &'static str,
    /// Base device (`v100` or `a100`).
    pub base: &'static str,
    /// L1 capacity override in KiB per SM.
    pub l1_kb: Option<u64>,
    /// Model 2-byte storage.
    pub half_precision: bool,
}

/// The four configs of the replay sweep. The first is the capture device, so
/// its replay must reproduce the live training profile exactly.
pub const DEVICES: [Device; 4] = [
    Device {
        name: "v100",
        base: "v100",
        l1_kb: None,
        half_precision: false,
    },
    Device {
        name: "a100",
        base: "a100",
        l1_kb: None,
        half_precision: false,
    },
    Device {
        name: "v100-l1-64k",
        base: "v100",
        l1_kb: Some(64),
        half_precision: false,
    },
    Device {
        name: "a100-fp16",
        base: "a100",
        l1_kb: None,
        half_precision: true,
    },
];

impl Device {
    /// The campaign-spec config object for this device, keyed as the
    /// daemon keys a single job's config (the name is the base device).
    pub fn job_config_json(&self) -> String {
        let mut cfg = format!("{{\"name\":\"{0}\",\"device\":\"{0}\"", self.base);
        if let Some(kb) = self.l1_kb {
            cfg.push_str(&format!(",\"l1_kb\":{kb}"));
        }
        if self.half_precision {
            cfg.push_str(",\"half_precision\":true");
        }
        cfg.push('}');
        cfg
    }

    /// The flat single-job body fields selecting this device.
    pub fn job_body_fields(&self) -> String {
        let mut s = format!("\"device\":\"{}\"", self.base);
        if let Some(kb) = self.l1_kb {
            s.push_str(&format!(",\"l1_kb\":{kb}"));
        }
        if self.half_precision {
            s.push_str(",\"half_precision\":true");
        }
        s
    }

    /// The modeled device this config simulates, built the way a campaign
    /// builds it.
    pub fn spec(&self) -> gnnmark_gpusim::DeviceSpec {
        gnnmark_serve::spec::DeviceConfig {
            name: self.name.to_string(),
            base: self.base.to_string(),
            l1_kb: self.l1_kb,
            nvlink_gbps: None,
            half_precision: self.half_precision,
            gpus: 1,
        }
        .to_device_spec()
        .expect("every sweep config names a known base device")
    }
}

/// The generated inputs of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Seed every workload's dataset and parameters are built from.
    pub dataset_seed: u64,
    /// The nine workloads in the order served jobs rotate through them.
    pub order: Vec<WorkloadKind>,
    /// Device rotation for served jobs.
    pub devices: Vec<Device>,
}

impl Inputs {
    /// Derives the inputs from a benchmark seed.
    pub fn from_seed(seed: u64) -> Inputs {
        let dataset_seed = if seed == HELD_OUT_SEED {
            HELD_OUT_DATASET_SEED
        } else {
            DATASET_SEEDS[(seed % DATASET_SEEDS.len() as u64) as usize]
        };
        let mut rng = SplitMix(seed ^ 0x6e6e_6d61_726b_6265);
        let mut order = WorkloadKind::ALL.to_vec();
        rng.shuffle(&mut order);
        let mut devices = DEVICES.to_vec();
        rng.shuffle(&mut devices);
        Inputs {
            dataset_seed,
            order,
            devices,
        }
    }

    /// Workload and device of the `n`-th served job: workloads rotate
    /// through `order`, and each lap over the workloads moves to the next
    /// device.
    pub fn served_job(&self, n: usize) -> (WorkloadKind, Device) {
        let kind = self.order[n % self.order.len()];
        let device = self.devices[(n + n / self.order.len()) % self.devices.len()];
        (kind, device)
    }
}

/// SplitMix64: a tiny, well-mixed generator for input permutations.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

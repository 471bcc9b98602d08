//! Synthetic proxies for the SPEC CPU2006 benchmark suite.
//!
//! The paper validates its power models against the 28 SPEC CPU2006 benchmarks running
//! on real hardware.  The suite is proprietary and there is no POWER7 hardware here, so
//! each benchmark is replaced by a synthetic proxy generated through MicroProbe from a
//! per-benchmark behaviour profile (instruction mix, memory-level hit distribution,
//! available ILP and branch behaviour).  The profiles follow the well-known qualitative
//! characteristics of each benchmark (e.g. `mcf`, `lbm` and `libquantum` are
//! memory-bound; `povray`, `namd` and `gamess` are floating-point compute-bound;
//! `perlbench`, `gcc` and `gobmk` are branchy integer codes).  Absolute fidelity to the
//! real binaries is neither possible nor required: the proxies' role is to provide a
//! *diverse, realistic validation population*, which these profiles deliver.

use microprobe::prelude::*;
use mp_isa::fnv::fnv1a64;
use mp_isa::{IssueClass, OpcodeId};
use mp_uarch::MicroArchitecture;

/// Behaviour profile of one SPEC CPU2006 proxy.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecProxy {
    /// Benchmark name (matching the paper's Figure 5a x-axis).
    pub name: &'static str,
    /// Weight of simple/complex integer instructions in the mix.
    pub integer_weight: f64,
    /// Weight of scalar floating point instructions in the mix.
    pub float_weight: f64,
    /// Weight of vector (VSX/VMX) instructions in the mix.
    pub vector_weight: f64,
    /// Weight of memory instructions in the mix.
    pub memory_weight: f64,
    /// Memory hit distribution of the memory instructions.
    pub memory_behavior: HitDistribution,
    /// Dependency distance bounds (smaller = less ILP).
    pub dependency: (usize, usize),
    /// Conditional branch density (one branch every `1/branch_density` instructions).
    pub branch_period: usize,
    /// Branch misprediction rate.
    pub mispredict_rate: f64,
}

impl SpecProxy {
    /// Generates the proxy micro-benchmark for a machine description.
    ///
    /// # Errors
    ///
    /// Returns the first pass failure.
    pub fn generate(
        &self,
        arch: &MicroArchitecture,
        loop_instructions: usize,
    ) -> Result<MicroBenchmark, PassError> {
        let isa = &arch.isa;
        let integers: Vec<OpcodeId> = isa.select(|d| {
            d.is_integer()
                && !d.is_memory()
                && !d.is_branch()
                && !d.is_privileged()
                && !d.is_vector()
        });
        let floats: Vec<OpcodeId> =
            isa.select(|d| d.issue_class() == IssueClass::Vsu && !d.is_vector() && !d.is_memory());
        let vectors: Vec<OpcodeId> = isa.select(|d| d.is_vector() && !d.is_memory());
        let memories: Vec<OpcodeId> = isa.select(|d| d.is_load() || d.is_store());

        let mut weighted: Vec<(OpcodeId, f64)> = Vec::new();
        let spread = |ops: &[OpcodeId], weight: f64, out: &mut Vec<(OpcodeId, f64)>| {
            if weight > 0.0 && !ops.is_empty() {
                let each = weight / ops.len() as f64;
                out.extend(ops.iter().map(|op| (*op, each)));
            }
        };
        spread(&integers, self.integer_weight, &mut weighted);
        spread(&floats, self.float_weight, &mut weighted);
        spread(&vectors, self.vector_weight, &mut weighted);
        spread(&memories, self.memory_weight, &mut weighted);

        let mut synth = Synthesizer::new(arch.clone())
            .with_seed(0x5bec ^ fnv1a64(self.name.as_bytes()))
            .with_name_prefix(self.name);
        synth.add_pass(SkeletonPass::endless_loop(loop_instructions));
        synth.add_pass(InstructionMixPass::weighted(weighted));
        synth.add_pass(MemoryPass::new(self.memory_behavior));
        synth.add_pass(InitRegistersPass::random());
        synth.add_pass(DependencyDistancePass::random(self.dependency.0, self.dependency.1));
        synth.add_pass(BranchBehaviorPass::conditional_every(
            self.branch_period,
            self.mispredict_rate,
        ));
        synth.synthesize()
    }
}

/// The 28 SPEC CPU2006 proxies, in the order the paper plots them.
pub fn spec_proxies() -> Vec<SpecProxy> {
    let dist = |l1: f64, l2: f64, l3: f64, mem: f64| {
        HitDistribution::new(l1, l2, l3, mem).expect("profile distributions are valid")
    };
    vec![
        SpecProxy {
            name: "perlbench",
            integer_weight: 0.62,
            float_weight: 0.02,
            vector_weight: 0.0,
            memory_weight: 0.36,
            memory_behavior: dist(0.92, 0.06, 0.02, 0.0),
            dependency: (1, 6),
            branch_period: 6,
            mispredict_rate: 0.04,
        },
        SpecProxy {
            name: "bzip2",
            integer_weight: 0.60,
            float_weight: 0.0,
            vector_weight: 0.0,
            memory_weight: 0.40,
            memory_behavior: dist(0.85, 0.10, 0.04, 0.01),
            dependency: (1, 5),
            branch_period: 7,
            mispredict_rate: 0.06,
        },
        SpecProxy {
            name: "gcc",
            integer_weight: 0.58,
            float_weight: 0.0,
            vector_weight: 0.0,
            memory_weight: 0.42,
            memory_behavior: dist(0.82, 0.10, 0.06, 0.02),
            dependency: (1, 5),
            branch_period: 5,
            mispredict_rate: 0.05,
        },
        SpecProxy {
            name: "bwaves",
            integer_weight: 0.15,
            float_weight: 0.30,
            vector_weight: 0.20,
            memory_weight: 0.35,
            memory_behavior: dist(0.70, 0.15, 0.10, 0.05),
            dependency: (2, 10),
            branch_period: 24,
            mispredict_rate: 0.01,
        },
        SpecProxy {
            name: "gamess",
            integer_weight: 0.20,
            float_weight: 0.50,
            vector_weight: 0.05,
            memory_weight: 0.25,
            memory_behavior: dist(0.95, 0.04, 0.01, 0.0),
            dependency: (2, 9),
            branch_period: 14,
            mispredict_rate: 0.02,
        },
        SpecProxy {
            name: "mcf",
            integer_weight: 0.45,
            float_weight: 0.0,
            vector_weight: 0.0,
            memory_weight: 0.55,
            memory_behavior: dist(0.55, 0.15, 0.15, 0.15),
            dependency: (1, 3),
            branch_period: 6,
            mispredict_rate: 0.08,
        },
        SpecProxy {
            name: "milc",
            integer_weight: 0.15,
            float_weight: 0.35,
            vector_weight: 0.15,
            memory_weight: 0.35,
            memory_behavior: dist(0.65, 0.15, 0.10, 0.10),
            dependency: (2, 8),
            branch_period: 20,
            mispredict_rate: 0.01,
        },
        SpecProxy {
            name: "zeusmp",
            integer_weight: 0.18,
            float_weight: 0.40,
            vector_weight: 0.10,
            memory_weight: 0.32,
            memory_behavior: dist(0.78, 0.12, 0.07, 0.03),
            dependency: (2, 9),
            branch_period: 22,
            mispredict_rate: 0.01,
        },
        SpecProxy {
            name: "gromacs",
            integer_weight: 0.22,
            float_weight: 0.45,
            vector_weight: 0.08,
            memory_weight: 0.25,
            memory_behavior: dist(0.90, 0.07, 0.03, 0.0),
            dependency: (2, 8),
            branch_period: 16,
            mispredict_rate: 0.02,
        },
        SpecProxy {
            name: "cactusADM",
            integer_weight: 0.12,
            float_weight: 0.48,
            vector_weight: 0.10,
            memory_weight: 0.30,
            memory_behavior: dist(0.72, 0.15, 0.08, 0.05),
            dependency: (3, 12),
            branch_period: 30,
            mispredict_rate: 0.005,
        },
        SpecProxy {
            name: "leslie3d",
            integer_weight: 0.15,
            float_weight: 0.42,
            vector_weight: 0.10,
            memory_weight: 0.33,
            memory_behavior: dist(0.70, 0.15, 0.10, 0.05),
            dependency: (2, 10),
            branch_period: 26,
            mispredict_rate: 0.01,
        },
        SpecProxy {
            name: "namd",
            integer_weight: 0.20,
            float_weight: 0.52,
            vector_weight: 0.05,
            memory_weight: 0.23,
            memory_behavior: dist(0.94, 0.04, 0.02, 0.0),
            dependency: (2, 10),
            branch_period: 18,
            mispredict_rate: 0.01,
        },
        SpecProxy {
            name: "gobmk",
            integer_weight: 0.62,
            float_weight: 0.0,
            vector_weight: 0.0,
            memory_weight: 0.38,
            memory_behavior: dist(0.90, 0.07, 0.03, 0.0),
            dependency: (1, 4),
            branch_period: 5,
            mispredict_rate: 0.09,
        },
        SpecProxy {
            name: "dealII",
            integer_weight: 0.30,
            float_weight: 0.38,
            vector_weight: 0.04,
            memory_weight: 0.28,
            memory_behavior: dist(0.88, 0.08, 0.03, 0.01),
            dependency: (2, 7),
            branch_period: 10,
            mispredict_rate: 0.03,
        },
        SpecProxy {
            name: "soplex",
            integer_weight: 0.35,
            float_weight: 0.25,
            vector_weight: 0.02,
            memory_weight: 0.38,
            memory_behavior: dist(0.75, 0.12, 0.08, 0.05),
            dependency: (1, 5),
            branch_period: 9,
            mispredict_rate: 0.04,
        },
        SpecProxy {
            name: "povray",
            integer_weight: 0.30,
            float_weight: 0.45,
            vector_weight: 0.02,
            memory_weight: 0.23,
            memory_behavior: dist(0.96, 0.03, 0.01, 0.0),
            dependency: (1, 6),
            branch_period: 8,
            mispredict_rate: 0.03,
        },
        SpecProxy {
            name: "calculix",
            integer_weight: 0.22,
            float_weight: 0.45,
            vector_weight: 0.06,
            memory_weight: 0.27,
            memory_behavior: dist(0.90, 0.06, 0.03, 0.01),
            dependency: (2, 9),
            branch_period: 15,
            mispredict_rate: 0.02,
        },
        SpecProxy {
            name: "hmmer",
            integer_weight: 0.65,
            float_weight: 0.0,
            vector_weight: 0.0,
            memory_weight: 0.35,
            memory_behavior: dist(0.96, 0.03, 0.01, 0.0),
            dependency: (2, 8),
            branch_period: 12,
            mispredict_rate: 0.02,
        },
        SpecProxy {
            name: "sjeng",
            integer_weight: 0.64,
            float_weight: 0.0,
            vector_weight: 0.0,
            memory_weight: 0.36,
            memory_behavior: dist(0.92, 0.05, 0.03, 0.0),
            dependency: (1, 4),
            branch_period: 5,
            mispredict_rate: 0.08,
        },
        SpecProxy {
            name: "GemsFDTD",
            integer_weight: 0.15,
            float_weight: 0.40,
            vector_weight: 0.10,
            memory_weight: 0.35,
            memory_behavior: dist(0.65, 0.17, 0.10, 0.08),
            dependency: (2, 10),
            branch_period: 28,
            mispredict_rate: 0.01,
        },
        SpecProxy {
            name: "libquantum",
            integer_weight: 0.40,
            float_weight: 0.05,
            vector_weight: 0.0,
            memory_weight: 0.55,
            memory_behavior: dist(0.50, 0.15, 0.15, 0.20),
            dependency: (3, 12),
            branch_period: 10,
            mispredict_rate: 0.01,
        },
        SpecProxy {
            name: "h264ref",
            integer_weight: 0.55,
            float_weight: 0.02,
            vector_weight: 0.05,
            memory_weight: 0.38,
            memory_behavior: dist(0.93, 0.05, 0.02, 0.0),
            dependency: (1, 6),
            branch_period: 8,
            mispredict_rate: 0.03,
        },
        SpecProxy {
            name: "tonto",
            integer_weight: 0.25,
            float_weight: 0.42,
            vector_weight: 0.05,
            memory_weight: 0.28,
            memory_behavior: dist(0.90, 0.06, 0.03, 0.01),
            dependency: (2, 8),
            branch_period: 12,
            mispredict_rate: 0.02,
        },
        SpecProxy {
            name: "lbm",
            integer_weight: 0.12,
            float_weight: 0.35,
            vector_weight: 0.13,
            memory_weight: 0.40,
            memory_behavior: dist(0.55, 0.15, 0.12, 0.18),
            dependency: (3, 12),
            branch_period: 40,
            mispredict_rate: 0.005,
        },
        SpecProxy {
            name: "omnetpp",
            integer_weight: 0.52,
            float_weight: 0.0,
            vector_weight: 0.0,
            memory_weight: 0.48,
            memory_behavior: dist(0.70, 0.14, 0.10, 0.06),
            dependency: (1, 4),
            branch_period: 6,
            mispredict_rate: 0.06,
        },
        SpecProxy {
            name: "astar",
            integer_weight: 0.55,
            float_weight: 0.02,
            vector_weight: 0.0,
            memory_weight: 0.43,
            memory_behavior: dist(0.78, 0.12, 0.06, 0.04),
            dependency: (1, 4),
            branch_period: 7,
            mispredict_rate: 0.07,
        },
        SpecProxy {
            name: "sphinx3",
            integer_weight: 0.30,
            float_weight: 0.35,
            vector_weight: 0.03,
            memory_weight: 0.32,
            memory_behavior: dist(0.80, 0.12, 0.05, 0.03),
            dependency: (2, 7),
            branch_period: 10,
            mispredict_rate: 0.03,
        },
        SpecProxy {
            name: "xalancbmk",
            integer_weight: 0.56,
            float_weight: 0.0,
            vector_weight: 0.0,
            memory_weight: 0.44,
            memory_behavior: dist(0.80, 0.12, 0.05, 0.03),
            dependency: (1, 4),
            branch_period: 5,
            mispredict_rate: 0.05,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_uarch::power7;

    #[test]
    fn there_are_28_proxies_with_unique_names() {
        let proxies = spec_proxies();
        assert_eq!(proxies.len(), 28);
        let mut names: Vec<&str> = proxies.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 28);
    }

    #[test]
    fn proxies_generate_valid_benchmarks() {
        let arch = power7();
        for proxy in spec_proxies().iter().take(4) {
            let bench = proxy.generate(&arch, 128).expect("proxy generates");
            assert_eq!(bench.kernel().len(), 128);
            assert!(bench.name().starts_with(proxy.name));
        }
    }

    #[test]
    fn memory_bound_proxies_have_more_offchip_traffic_than_compute_bound_ones() {
        let proxies = spec_proxies();
        let mcf = proxies.iter().find(|p| p.name == "mcf").unwrap();
        let povray = proxies.iter().find(|p| p.name == "povray").unwrap();
        assert!(
            mcf.memory_behavior.fraction(mp_uarch::MemLevel::Mem)
                > povray.memory_behavior.fraction(mp_uarch::MemLevel::Mem)
        );
        assert!(mcf.memory_weight > povray.memory_weight);
    }

    #[test]
    fn fp_proxies_carry_fp_weight() {
        for p in spec_proxies() {
            if ["namd", "povray", "gamess", "calculix"].contains(&p.name) {
                assert!(p.float_weight > 0.3, "{} should be FP heavy", p.name);
            }
        }
    }
}

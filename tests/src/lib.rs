//! Shared fixtures for the cross-crate integration tests.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use microprobe::platform::SimPlatform;
use mp_runtime::{faults, ExperimentSession, FaultPlan};
use mp_sim::{ChipSim, SimOptions};

/// A platform with short runs, sized so the integration tests stay fast in debug builds.
pub fn test_platform() -> SimPlatform {
    test_platform_on("power7").expect("power7 machine spec is embedded")
}

/// [`test_platform`] on any named spec-loaded backend (`mp_uarch::backend_names`).
pub fn test_platform_on(backend: &str) -> Option<SimPlatform> {
    Some(SimPlatform::new(ChipSim::new(mp_uarch::backend(backend)?).with_options(SimOptions {
        warmup_cycles: 1_200,
        measure_cycles: 3_000,
        sample_cycles: 500,
        noise_fraction: 0.002,
        prefetch_enabled: true,
        seed: 0x17e5,
        uncore_mode: mp_sim::UncoreMode::Private,
    })))
}

/// The process-wide memoizing measurement session over [`test_platform`].
///
/// Test cases in the same integration-test binary share this session, so fixtures that
/// measure the same `(benchmark, configuration)` pairs (training sweeps, bootstrap
/// loops) pay for each unique pair once per process instead of once per test case.
/// The session is internally synchronised; the default worker count honours
/// `MP_THREADS`.
pub fn session() -> &'static ExperimentSession<SimPlatform> {
    static SESSION: OnceLock<ExperimentSession<SimPlatform>> = OnceLock::new();
    SESSION.get_or_init(|| ExperimentSession::new(test_platform()))
}

/// Serializes the tests of one integration-test binary that touch process-global
/// state (the fault-injection plan, the telemetry registry).  Each test binary is its
/// own process, so the lock never spans binaries.
pub fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

/// Pins the fault plan (under [`serial`]) for the guard's lifetime, restoring the
/// ambient `MP_FAULTS` plan on drop.
pub struct PlanGuard {
    ambient: Option<FaultPlan>,
    _serial: MutexGuard<'static, ()>,
}

/// Installs `plan` as the process's fault plan until the returned guard drops.
pub fn pin_faults(plan: Option<FaultPlan>) -> PlanGuard {
    let guard = serial();
    let ambient = faults::plan();
    faults::set_plan(plan);
    PlanGuard { ambient, _serial: guard }
}

impl Drop for PlanGuard {
    fn drop(&mut self) {
        faults::set_plan(self.ambient);
    }
}

/// A unique, self-cleaning directory under the system temp directory, named
/// `<prefix>-<pid>-<nonce>`.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates a fresh directory whose name starts with `prefix`.
    pub fn new(prefix: &str) -> Self {
        static NONCE: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "{prefix}-{}-{}",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("temp dir creates");
        Self(path)
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

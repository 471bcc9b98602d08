//! The measurement daemon binary: one shared memoizing session served over TCP.
//!
//! Usage: `mp_serviced [quick|standard|full] [--backend NAME] [--addr HOST:PORT]`
//!
//! The daemon owns an [`ExperimentSession`](mp_runtime::ExperimentSession) at the
//! given scale — with the persistent store tier when `MP_STORE_DIR` is set — and
//! serves it to every `exp_*` binary started with `MP_SERVICE_ADDR` pointing here.
//! The scale argument matters: job keys do not cover the simulation scale, so the
//! daemon must run at the same scale as its clients (the determinism CI job pins
//! both).  The default address is `127.0.0.1:0` (an ephemeral loopback port); the
//! actual address is printed as the first stdout line, `# mp_serviced listening on
//! HOST:PORT`, for scripts to scrape.
//!
//! Shut the daemon down with a `Shutdown` frame — any client's
//! [`RemoteRunner::shutdown_daemon`](mp_service::RemoteRunner) sends one.

use std::io::Write as _;

use microprobe::platform::SimPlatform;
use mp_bench::ExperimentScale;
use mp_runtime::ExperimentSession;
use mp_service::MeasurementDaemon;
use mp_sim::ChipSim;

fn main() {
    let mut scale_arg = None;
    let mut backend = "power7".to_owned();
    let mut addr = "127.0.0.1:0".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--backend" => backend = args.next().expect("--backend takes a name"),
            "--addr" => addr = args.next().expect("--addr takes HOST:PORT"),
            other => scale_arg = Some(other.to_owned()),
        }
    }
    let scale = ExperimentScale::from_arg(scale_arg.as_deref());

    let uarch = mp_uarch::backend(&backend)
        .unwrap_or_else(|| panic!("unknown backend `{backend}`; see mp_uarch::backend_names"));
    let sim = ChipSim::new(uarch).with_options(scale.sim_options());
    // ExperimentSession::new reads MP_THREADS and MP_STORE_DIR from the environment:
    // the daemon is where both the workers and the persistent store live.
    let session = ExperimentSession::new(SimPlatform::new(sim));

    let daemon = MeasurementDaemon::bind(session, &*addr)
        .unwrap_or_else(|error| panic!("bind {addr}: {error}"));
    println!("# mp_serviced listening on {}", daemon.local_addr());
    // Scripts scrape the address line; make sure it is out before blocking.
    let _ = std::io::stdout().flush();
    daemon.run();
    mp_telemetry::report();
}

//! Launching and running (partitioned) SGX applications (§5.4–§5.6).
//!
//! [`PartitionedApp`] is the runtime form of the paper's final SGX
//! application: the trusted image loaded into a (simulated) enclave with
//! its own isolate, the untrusted image outside with another, the relay
//! dispatch connecting them, and one GC helper thread per runtime
//! keeping proxy/mirror lifetimes consistent (§5.5).
//!
//! [`SingleWorldApp`] runs an unpartitioned image either fully inside
//! the enclave (§5.6 — the paper's `NoPart` configuration) or on the
//! host (`NoSGX`), and is also the substrate for the SCONE+JVM baseline
//! (same placement, JVM execution model).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use rmi::gc_helper::GcHelper;
use runtime_sim::heap::HeapConfig;
use runtime_sim::value::Value;
use sgx_sim::cost::{ClockMode, CostModel, CostParams};
use sgx_sim::enclave::{Enclave, EnclaveConfig};
use sgx_sim::SgxError;

use crate::annotation::Side;
use crate::class::MethodRef;
use crate::error::VmError;
use crate::exec::ctx::{serve_relay, Ctx};
use crate::exec::switchless::{ServeFn, SwitchlessConfig, SwitchlessPool};
use crate::exec::world::{ClassIndex, ExecModel, HeapLevels, World};
use crate::image_builder::NativeImage;
use crate::provider::{self, CrossingDir, ProviderKind};
use crate::transform::is_relay_name;

/// Configuration for launching applications.
#[derive(Debug, Clone)]
pub struct AppConfig {
    /// Cost-model parameters (defaults to the paper's platform).
    pub cost_params: CostParams,
    /// Clock realisation (virtual for experiments, spin for wall-clock
    /// benchmarking).
    pub clock_mode: ClockMode,
    /// Enclave configuration (paper: 4 GB heap, 8 MB stack; §6.1).
    pub enclave_config: EnclaveConfig,
    /// Managed-heap configuration per isolate (paper: images built with
    /// 2 GB maximum heap; §6.1). Its `collector` picks the garbage
    /// collector each isolate runs, and its `block_bytes` is the block
    /// collector's granule, which the enclave's EPC charge uses too.
    pub heap_config: HeapConfig,
    /// GC helper scan interval; `None` disables the helper threads
    /// (tests then drive [`PartitionedApp::gc_sync_once`] manually).
    pub gc_helper_interval: Option<Duration>,
    /// Execution model (native image by default; the SCONE+JVM baseline
    /// overrides it).
    pub exec_model: ExecModel,
    /// Working directory for scratch files; a fresh temp dir if `None`.
    pub workdir: Option<PathBuf>,
    /// Switchless (transition-less) RMI calls: `Some` routes every RMI
    /// through resident worker threads instead of hardware transitions
    /// (the paper's §7 future-work item). `None` uses classic
    /// ecall/ocall crossings.
    pub switchless: Option<SwitchlessConfig>,
    /// Telemetry recorder every layer of this application reports into.
    /// `None` creates a fresh recorder (the normal case); inject one to
    /// isolate a run's metrics from other applications in the process,
    /// or to share one recorder across several runs.
    pub telemetry: Option<Arc<telemetry::Recorder>>,
    /// Trace sink every layer of this application emits causal trace
    /// events into. `None` uses the process-global tracer
    /// ([`telemetry::trace::Tracer::global`]), which captures nothing
    /// until enabled; inject one to isolate a run's trace.
    pub trace: Option<Arc<telemetry::trace::Tracer>>,
    /// How the trusted world is realized (see [`crate::provider`]).
    /// `None` consults `MONTSALVAT_PROVIDER` at launch (an unknown
    /// value fails the launch) and defaults to
    /// [`ProviderKind::SimSgx`]; `Some(_)` pins the deployment mode
    /// without reading the environment.
    pub provider: Option<ProviderKind>,
}

impl Default for AppConfig {
    fn default() -> Self {
        AppConfig {
            cost_params: CostParams::paper_defaults(),
            clock_mode: ClockMode::Virtual,
            enclave_config: EnclaveConfig::default(),
            heap_config: HeapConfig::default(),
            gc_helper_interval: Some(Duration::from_millis(100)),
            exec_model: ExecModel::native_image(),
            workdir: None,
            switchless: None,
            telemetry: None,
            trace: None,
            provider: None,
        }
    }
}

/// Builds the application's cost model, injecting the configured
/// recorder and tracer if provided.
fn cost_model(config: &AppConfig) -> Arc<CostModel> {
    let recorder = match &config.telemetry {
        Some(rec) => Arc::clone(rec),
        None => telemetry::Recorder::new(),
    };
    let tracer = match &config.trace {
        Some(tracer) => Arc::clone(tracer),
        None => Arc::clone(telemetry::trace::Tracer::global()),
    };
    Arc::new(CostModel::with_recorder_and_tracer(
        config.cost_params.clone(),
        config.clock_mode,
        recorder,
        tracer,
    ))
}

/// State shared by both runtimes of a running application.
#[derive(Debug)]
pub struct AppShared {
    /// The (simulated) enclave.
    pub enclave: Arc<Enclave>,
    /// The deployment mode every boundary crossing realizes (see
    /// [`crate::provider`]), resolved at launch.
    pub provider: ProviderKind,
    /// The shared clock/cost model.
    pub cost: Arc<CostModel>,
    trusted: Arc<World>,
    untrusted: Arc<World>,
    /// The switchless pool, fixed at launch: crossings read it without
    /// a lock, and it stops and joins its workers when the app drops.
    pub(crate) switchless: Option<SwitchlessPool>,
    /// The class-name interner both runtimes share, modelling the
    /// per-peer tables each side builds from the `Named` hints it has
    /// seen (`docs/SERDE.md`).
    pub(crate) names: rmi::NameInterner,
}

impl AppShared {
    /// The world for `side`.
    pub fn world(&self, side: Side) -> &Arc<World> {
        match side {
            Side::Trusted => &self.trusted,
            Side::Untrusted => &self.untrusted,
        }
    }

    /// Performs one boundary crossing and returns what `f` returns: an
    /// [`Enclave::ecall`] or [`Enclave::ocall`] under
    /// [`ProviderKind::SimSgx`], `f` inline under
    /// [`ProviderKind::PassThrough`]. `routine` is the EDL edge-routine
    /// name and `bytes` the wire length of the message, both used for
    /// charging and telemetry only.
    ///
    /// # Errors
    ///
    /// Propagates enclave loss under [`ProviderKind::SimSgx`].
    pub(crate) fn cross<R>(
        &self,
        dir: CrossingDir,
        routine: &str,
        bytes: usize,
        f: impl FnOnce() -> R,
    ) -> Result<R, SgxError> {
        match (self.provider, dir) {
            (ProviderKind::SimSgx, CrossingDir::Enter) => self.enclave.ecall(routine, bytes, f),
            (ProviderKind::SimSgx, CrossingDir::Exit) => self.enclave.ocall(routine, bytes, f),
            (ProviderKind::PassThrough, _) => Ok(f()),
        }
    }

    /// The classic crossing of one RMI call: [`cross`](Self::cross)
    /// after charging the relay software itself (isolate attach,
    /// edge-routine marshalling, registry work) under
    /// [`ProviderKind::SimSgx`]. [`ProviderKind::PassThrough`] charges
    /// neither.
    ///
    /// # Errors
    ///
    /// Propagates enclave loss under [`ProviderKind::SimSgx`].
    pub(crate) fn cross_classic<R>(
        &self,
        dir: CrossingDir,
        routine: &str,
        bytes: usize,
        f: impl FnOnce() -> R,
    ) -> Result<R, SgxError> {
        if self.provider == ProviderKind::SimSgx {
            self.cost.charge_ns(self.cost.params().relay_overhead_ns);
        }
        self.cross(dir, routine, bytes, f)
    }

    /// Always `true`: every crossing encodes wire format v2, the only
    /// serde path (`docs/SERDE.md` §"Why one wire format"). Kept
    /// because the benchmark harness reports it.
    pub fn serde_fastpath(&self) -> bool {
        true
    }

    /// Number of distinct class names interned by crossing hints so
    /// far — stable across steady-state crossings (names cross once).
    pub fn serde_interned_names(&self) -> usize {
        self.names.len()
    }
}

/// Releases mirrors in the opposite world for proxies that `side`'s
/// collector has reclaimed: the GC helper's scan-and-relay step (§5.5).
///
/// Returns how many mirrors were released. Performs one crossing if any
/// proxies died (batched), zero otherwise.
pub(crate) fn gc_sync_from(shared: &AppShared, side: Side) -> Result<usize, VmError> {
    let world = shared.world(side);
    let dead = {
        let mut rmi = world.rmi.lock();
        let heap = world.isolate.lock_heap();
        rmi.weaklist.scan_dead(&heap)
    };
    if dead.is_empty() {
        return Ok(0);
    }
    // The sweep's crossing (and its transition span) parents under
    // this span, so helper activity shows up as its own call trees on
    // the sweeping side's lane.
    let _span = shared.cost.tracer().span(
        side.lane(),
        "gc",
        telemetry::trace::current(),
        || shared.cost.charged_ns(),
        || format!("gc-sweep:{side} dead={}", dead.len()),
    );
    let other = shared.world(side.opposite());
    let bytes = dead.len() * 16;
    let release = || {
        let mut rmi = other.rmi.lock();
        let mut heap = other.isolate.lock_heap();
        let mut released = 0usize;
        for h in &dead {
            if rmi.registry.remove(&mut heap, *h).is_some() {
                released += 1;
            }
        }
        released
    };
    let released = match side {
        // The untrusted helper enters the trusted world to drop its mirrors.
        Side::Untrusted => shared.cross(CrossingDir::Enter, "ecall_gc_release", bytes, release),
        // The trusted helper exits to drop untrusted mirrors.
        Side::Trusted => shared.cross(CrossingDir::Exit, "ocall_gc_release", bytes, release),
    };
    Ok(released?)
}

/// A fresh scratch directory. The pid is zero-padded so the scratch
/// path's length — which in-enclave opens charge per byte — is the
/// same in every process.
fn fresh_workdir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("montsalvat-{tag}-{:010}-{n}", std::process::id()))
}

/// Undoes a launch: stops the GC helpers, destroys the enclave and
/// removes the scratch directory if the launch created it. Both app
/// shapes hold one from the moment the enclave exists, so a launch
/// that fails part-way leaves nothing behind, and dropping or shutting
/// down an app tears it down the same way.
#[derive(Debug)]
struct Teardown {
    helpers: Vec<GcHelper>,
    enclave: Arc<Enclave>,
    owned_workdir: Option<PathBuf>,
}

impl Drop for Teardown {
    fn drop(&mut self) {
        // Each helper stops and joins as it drops.
        self.helpers.clear();
        self.enclave.destroy();
        if let Some(dir) = &self.owned_workdir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// What both app shapes launch on.
struct Launch {
    provider: ProviderKind,
    cost: Arc<CostModel>,
    enclave: Arc<Enclave>,
    /// Whether the image that asked for the enclave runs inside it,
    /// which only [`ProviderKind::SimSgx`] allows.
    in_enclave: bool,
    workdir: PathBuf,
    /// The heap levels of the launch's worlds, summed into the gauges.
    levels: Arc<HeapLevels>,
    teardown: Teardown,
}

impl Launch {
    /// The launch path both app shapes share: resolves the provider,
    /// builds the cost model and the enclave measured over `image`,
    /// commits the measured image, its code and the runtime overhead to
    /// the EPC only when it runs in the enclave (asked for by
    /// `wants_enclave`, and only under [`ProviderKind::SimSgx`]),
    /// charges startup and creates the scratch directory, tagged with
    /// `tag` when the config names none.
    fn new(
        config: &AppConfig,
        image: &NativeImage,
        wants_enclave: bool,
        tag: &str,
    ) -> Result<Self, VmError> {
        let provider = provider::detect(config.provider)?;
        let cost = cost_model(config);
        let measured = image.measurement_bytes();
        let enclave = Enclave::create(&config.enclave_config, &measured, Arc::clone(&cost))?;
        let mut teardown =
            Teardown { helpers: Vec::new(), enclave: Arc::clone(&enclave), owned_workdir: None };
        let in_enclave = wants_enclave && provider == ProviderKind::SimSgx;
        if in_enclave {
            // Commit the loaded image, its compiled code and the runtime
            // to the EPC.
            enclave.alloc_heap(measured.len() as u64)?;
            enclave.alloc_heap(image.code_size_estimate())?;
            let overhead = config.exec_model.runtime_heap_overhead_bytes;
            if overhead > 0 {
                enclave.alloc_heap(overhead)?;
                enclave.charge_heap_traffic(overhead);
            }
        }
        cost.charge_ns(config.exec_model.startup_ns);
        let workdir = match &config.workdir {
            Some(dir) => dir.clone(),
            None => teardown.owned_workdir.insert(fresh_workdir(tag)).clone(),
        };
        std::fs::create_dir_all(&workdir).map_err(|e| VmError::Io(e.to_string()))?;
        Ok(Launch {
            provider,
            cost,
            enclave,
            in_enclave,
            workdir,
            levels: Arc::default(),
            teardown,
        })
    }

    /// A world for `side` over `image`'s classes, with its image heap
    /// restored and its scratch file named `scratch` in the workdir.
    /// Only the trusted world of an in-enclave launch runs inside the
    /// enclave.
    fn world(
        &self,
        side: Side,
        image: &NativeImage,
        config: &AppConfig,
        scratch: &str,
    ) -> Result<Arc<World>, VmError> {
        let in_enclave = side == Side::Trusted && self.in_enclave;
        let world = World::new(
            side,
            Arc::new(ClassIndex::from_classes(&image.classes)),
            config,
            self.workdir.join(scratch),
            &self.cost,
            in_enclave.then_some(&self.enclave),
            &self.levels,
        );
        restore_image_heap(image, &world)?;
        Ok(world)
    }

    /// The state both runtimes share, with a switchless pool over it
    /// when `switchless` configures one, and the guard that tears the
    /// launch down.
    fn into_shared(
        self,
        trusted: Arc<World>,
        untrusted: Arc<World>,
        switchless: Option<&SwitchlessConfig>,
    ) -> (Arc<AppShared>, Teardown) {
        let Launch { provider, cost, enclave, teardown, .. } = self;
        let shared = Arc::new_cyclic(|app: &Weak<AppShared>| {
            let switchless = switchless.map(|sw_config| {
                // Workers hold the app weakly, so the pool inside it
                // does not keep it alive. A serve's strong handle ends
                // before its worker replies, while the caller still
                // holds the app, so the app — and with it the pool,
                // which joins its workers — never drops on a worker.
                let app = Weak::clone(app);
                let serve: ServeFn = Arc::new(move |side, crossing, msg| {
                    let app = app.upgrade().ok_or(VmError::Sgx(SgxError::EnclaveLost))?;
                    serve_relay(&app, app.world(side), crossing, msg)
                });
                SwitchlessPool::spawn(sw_config, serve, Arc::clone(&cost))
            });
            AppShared {
                enclave,
                provider,
                cost,
                trusted,
                untrusted,
                switchless,
                names: rmi::NameInterner::default(),
            }
        });
        (shared, teardown)
    }
}

fn find_main(image: &NativeImage) -> Result<MethodRef, VmError> {
    image
        .entry_points
        .iter()
        .find(|e| !is_relay_name(&e.method))
        .cloned()
        .ok_or_else(|| VmError::UnknownMethod { class: "<image>".into(), method: "main".into() })
}

fn restore_image_heap(image: &NativeImage, world: &Arc<World>) -> Result<(), VmError> {
    if image.image_heap.object_count() == 0 {
        return Ok(());
    }
    world.isolate.with_heap(|h| image.image_heap.restore_into(h)).map_err(VmError::OutOfMemory)?;
    Ok(())
}

/// A running partitioned application: trusted + untrusted runtimes, the
/// enclave between them, and the GC helper threads.
///
/// # Examples
///
/// ```
/// use montsalvat_core::exec::app::{AppConfig, PartitionedApp};
/// use montsalvat_core::image_builder::{build_partitioned_images, ImageOptions};
/// use montsalvat_core::samples::bank_program;
/// use montsalvat_core::transform::transform;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tp = transform(&bank_program());
/// let (trusted, untrusted) =
///     build_partitioned_images(&tp, &ImageOptions::default(), &ImageOptions::default())?;
/// let app = PartitionedApp::launch(&trusted, &untrusted, AppConfig::default())?;
/// app.run_main()?; // Alice pays Bob inside the enclave
/// assert!(app.telemetry().counter(telemetry::Counter::Ecalls) > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PartitionedApp {
    // Declared first, so it drops first: the helpers stop and the
    // enclave is destroyed before `shared` releases the switchless pool.
    _teardown: Teardown,
    /// Shared runtime state (enclave, clock, worlds).
    pub shared: Arc<AppShared>,
    /// The simulated enclave (alias of `shared.enclave`).
    pub enclave: Arc<Enclave>,
    main: MethodRef,
}

impl PartitionedApp {
    /// Loads both images, creates the enclave and isolates, restores
    /// image heaps and spawns the GC helpers.
    ///
    /// # Errors
    ///
    /// Fails if the images are for the wrong sides, `MONTSALVAT_PROVIDER`
    /// names no provider, enclave creation is rejected, the scratch
    /// directory cannot be created, or the untrusted image has no
    /// `main`.
    pub fn launch(
        trusted_image: &NativeImage,
        untrusted_image: &NativeImage,
        config: AppConfig,
    ) -> Result<Self, VmError> {
        if trusted_image.side != Some(Side::Trusted)
            || untrusted_image.side != Some(Side::Untrusted)
        {
            return Err(VmError::Type("launch requires a (trusted, untrusted) image pair".into()));
        }
        let launch = Launch::new(&config, trusted_image, true, "part")?;
        let main = find_main(untrusted_image)?;
        let trusted = launch.world(Side::Trusted, trusted_image, &config, "trusted.scratch")?;
        let untrusted =
            launch.world(Side::Untrusted, untrusted_image, &config, "untrusted.scratch")?;
        let (shared, mut teardown) =
            launch.into_shared(trusted, untrusted, config.switchless.as_ref());

        if let Some(interval) = config.gc_helper_interval {
            for side in [Side::Trusted, Side::Untrusted] {
                let shared_ref = Arc::clone(&shared);
                teardown.helpers.push(GcHelper::spawn(
                    format!("{side}-gc-helper"),
                    interval,
                    Arc::clone(shared.cost.recorder()),
                    move || {
                        // A lost enclave just idles the helper; shutdown
                        // stops it for real.
                        let _ = gc_sync_from(&shared_ref, side);
                    },
                ));
            }
        }
        let enclave = Arc::clone(&shared.enclave);
        Ok(PartitionedApp { _teardown: teardown, shared, enclave, main })
    }

    /// Runs the application's `main` entry point in the untrusted world.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] the application raises.
    pub fn run_main(&self) -> Result<Value, VmError> {
        let main = self.main.clone();
        self.enter_untrusted(|ctx| ctx.call_static(&main.class, &main.method, &[]))
    }

    /// Runs `f` in a fresh frame of the untrusted world.
    ///
    /// # Errors
    ///
    /// Propagates errors from `f`.
    pub fn enter_untrusted<R>(
        &self,
        f: impl FnOnce(&mut Ctx<'_>) -> Result<R, VmError>,
    ) -> Result<R, VmError> {
        let mut ctx = Ctx::new(&self.shared, Arc::clone(self.shared.world(Side::Untrusted)));
        f(&mut ctx)
    }

    /// Runs `f` in a fresh frame of the trusted world, under one
    /// enter-crossing (an ecall under the default provider).
    ///
    /// # Errors
    ///
    /// Propagates errors from `f` and enclave loss.
    pub fn enter_trusted<R>(
        &self,
        f: impl FnOnce(&mut Ctx<'_>) -> Result<R, VmError>,
    ) -> Result<R, VmError> {
        self.shared.cross(CrossingDir::Enter, "ecall_enter", 0, || {
            let mut ctx = Ctx::new(&self.shared, Arc::clone(self.shared.world(Side::Trusted)));
            f(&mut ctx)
        })?
    }

    /// Runs one GC-helper scan in each direction synchronously and
    /// returns `(mirrors_released_in_enclave, mirrors_released_outside)`.
    ///
    /// # Errors
    ///
    /// Propagates enclave loss.
    pub fn gc_sync_once(&self) -> Result<(usize, usize), VmError> {
        let from_untrusted = gc_sync_from(&self.shared, Side::Untrusted)?;
        let from_trusted = gc_sync_from(&self.shared, Side::Trusted)?;
        Ok((from_untrusted, from_trusted))
    }

    /// Freezes every telemetry metric of this application (both worlds,
    /// the enclave and the RMI layer report into one recorder).
    pub fn telemetry_snapshot(&self) -> telemetry::Snapshot {
        self.shared.cost.recorder().snapshot()
    }

    /// The telemetry recorder every layer of this application reports
    /// into.
    pub fn telemetry(&self) -> &Arc<telemetry::Recorder> {
        self.shared.cost.recorder()
    }

    /// Live worker/queue readings of the switchless pool, or `None`
    /// when the application runs classic crossings.
    pub fn switchless_stats(&self) -> Option<crate::exec::switchless::SwitchlessStats> {
        self.shared.switchless.as_ref().map(|pool| pool.stats())
    }

    /// Number of live mirrors registered in `side`'s registry.
    pub fn registry_len(&self, side: Side) -> usize {
        self.shared.world(side).rmi.lock().registry.len()
    }

    /// Number of *live* proxy objects currently in `side`'s heap.
    pub fn live_proxy_count(&self, side: Side) -> usize {
        let world = self.shared.world(side);
        let rmi = world.rmi.lock();
        let heap = world.isolate.lock_heap();
        rmi.weaklist.live_count(&heap)
    }

    /// Stops the helpers, destroys the enclave and removes the scratch
    /// directory if the launch created it — what dropping the app does.
    pub fn shutdown(self) {
        drop(self);
    }
}

/// Placement of an unpartitioned application (§5.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// The whole image runs inside the enclave (`NoPart` in the paper).
    Enclave,
    /// The whole image runs on the host (`NoSGX`).
    Host,
}

/// A running unpartitioned application: one image, one isolate, placed
/// either inside the enclave or on the host.
#[derive(Debug)]
pub struct SingleWorldApp {
    // Declared first, so it drops first (see `PartitionedApp`).
    _teardown: Teardown,
    /// Shared runtime state; both world slots alias the single world.
    pub shared: Arc<AppShared>,
    /// The simulated enclave (unused crossings-wise under
    /// [`Placement::Host`]).
    pub enclave: Arc<Enclave>,
    placement: Placement,
    main: MethodRef,
}

impl SingleWorldApp {
    /// Loads an unpartitioned image under the given placement. Under
    /// [`ProviderKind::PassThrough`] the image runs on the host even
    /// with [`Placement::Enclave`].
    ///
    /// # Errors
    ///
    /// Fails if the image is partitioned (has a side),
    /// `MONTSALVAT_PROVIDER` names no provider, enclave creation fails,
    /// the scratch directory cannot be created, or the image has no
    /// `main`.
    pub fn launch(
        image: &NativeImage,
        placement: Placement,
        config: AppConfig,
    ) -> Result<Self, VmError> {
        if image.side.is_some() {
            return Err(VmError::Type("SingleWorldApp requires an unpartitioned image".into()));
        }
        let launch = Launch::new(&config, image, placement == Placement::Enclave, "single")?;
        let main = find_main(image)?;
        let side = if launch.in_enclave { Side::Trusted } else { Side::Untrusted };
        let world = launch.world(side, image, &config, "app.scratch")?;
        let (shared, teardown) = launch.into_shared(Arc::clone(&world), world, None);
        let enclave = Arc::clone(&shared.enclave);
        Ok(SingleWorldApp { _teardown: teardown, shared, enclave, placement, main })
    }

    /// The placement this application runs under.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Runs `main`. Under [`Placement::Enclave`] the whole run happens
    /// under a single ecall, as in the paper's unpartitioned deployment.
    ///
    /// # Errors
    ///
    /// Propagates application errors and enclave loss.
    pub fn run_main(&self) -> Result<Value, VmError> {
        let main = self.main.clone();
        self.enter(|ctx| ctx.call_static(&main.class, &main.method, &[]))
    }

    /// Runs `f` in a fresh frame (under one ecall when in-enclave).
    ///
    /// # Errors
    ///
    /// Propagates errors from `f` and enclave loss.
    pub fn enter<R>(
        &self,
        f: impl FnOnce(&mut Ctx<'_>) -> Result<R, VmError>,
    ) -> Result<R, VmError> {
        let run = || {
            let mut ctx = Ctx::new(&self.shared, Arc::clone(self.shared.world(Side::Untrusted)));
            f(&mut ctx)
        };
        match self.placement {
            Placement::Enclave => self.shared.cross(CrossingDir::Enter, "ecall_main", 0, run)?,
            Placement::Host => run(),
        }
    }

    /// Freezes every telemetry metric of this application.
    pub fn telemetry_snapshot(&self) -> telemetry::Snapshot {
        self.shared.cost.recorder().snapshot()
    }

    /// The telemetry recorder every layer of this application reports
    /// into.
    pub fn telemetry(&self) -> &Arc<telemetry::Recorder> {
        self.shared.cost.recorder()
    }

    /// Destroys the enclave and removes the scratch directory if the
    /// launch created it — what dropping the app does.
    pub fn shutdown(self) {
        drop(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image_builder::{build_partitioned_images, ImageOptions};
    use crate::samples::bank_program;
    use crate::transform::transform;

    fn launch_bank(provider: ProviderKind, cost_params: CostParams) -> PartitionedApp {
        let tp = transform(&bank_program());
        let options = ImageOptions::default();
        let (t, u) = build_partitioned_images(&tp, &options, &options).unwrap();
        let config = AppConfig {
            cost_params,
            gc_helper_interval: None,
            provider: Some(provider),
            ..AppConfig::default()
        };
        PartitionedApp::launch(&t, &u, config).unwrap()
    }

    /// The app's `(ecalls, ocalls)`.
    fn transitions(app: &PartitionedApp) -> (u64, u64) {
        let recorder = app.telemetry();
        (recorder.counter(telemetry::Counter::Ecalls), recorder.counter(telemetry::Counter::Ocalls))
    }

    /// The model time the bank's `main` charges under `provider` with
    /// the given relay overhead, and the RMI calls it makes.
    fn bank_main_cost(provider: ProviderKind, relay_overhead_ns: u64) -> (Duration, u64) {
        let params = CostParams { relay_overhead_ns, ..CostParams::paper_defaults() };
        let app = launch_bank(provider, params);
        app.run_main().unwrap();
        (app.shared.cost.charged(), app.telemetry().counter(telemetry::Counter::RmiCalls))
    }

    #[test]
    fn sim_sgx_crossings_are_charged_transitions() {
        let app = launch_bank(ProviderKind::SimSgx, CostParams::paper_defaults());
        let before = app.shared.cost.charged();
        assert_eq!(app.shared.cross(CrossingDir::Enter, "ecall_test", 64, || 41 + 1).unwrap(), 42);
        app.shared.cross(CrossingDir::Exit, "ocall_test", 16, || ()).unwrap();
        assert_eq!(transitions(&app), (1, 1));
        assert!(app.shared.cost.charged() > before, "SimSgx crossings charge model time");
        app.enclave.destroy();
        let lost = app.shared.cross(CrossingDir::Enter, "ecall_test", 0, || ());
        assert!(matches!(lost, Err(SgxError::EnclaveLost)));
    }

    #[test]
    fn pass_through_crossings_run_inline_for_free() {
        let app = launch_bank(ProviderKind::PassThrough, CostParams::paper_defaults());
        let before = app.shared.cost.charged();
        let value = app.shared.cross(CrossingDir::Enter, "ecall_test", 64, || 7).unwrap();
        let back = app.shared.cross(CrossingDir::Exit, "ocall_test", 64, || 8).unwrap();
        let relayed = app.shared.cross_classic(CrossingDir::Enter, "ecall_test", 64, || 9).unwrap();
        assert_eq!((value, back, relayed), (7, 8, 9));
        assert_eq!(transitions(&app), (0, 0));
        assert_eq!(app.shared.cost.charged(), before, "PassThrough crossings are free");
        assert!(!app.shared.world(Side::Trusted).in_enclave);
    }

    #[test]
    fn relay_overhead_is_charged_per_rmi_call_only_under_sim_sgx() {
        let relay = CostParams::paper_defaults().relay_overhead_ns;
        assert!(relay > 0);
        let (free, calls) = bank_main_cost(ProviderKind::PassThrough, 0);
        assert!(calls > 0, "the bank's main makes RMI calls");
        assert_eq!(bank_main_cost(ProviderKind::PassThrough, relay), (free, calls));
        let (bare, sgx_calls) = bank_main_cost(ProviderKind::SimSgx, 0);
        let (charged, _) = bank_main_cost(ProviderKind::SimSgx, relay);
        assert_eq!(sgx_calls, calls);
        assert_eq!(charged - bare, Duration::from_nanos(calls * relay));
    }

    #[test]
    fn shutdown_removes_the_scratch_directory_the_launch_created() {
        let app = launch_bank(ProviderKind::SimSgx, CostParams::paper_defaults());
        let scratch = app.shared.world(Side::Trusted).scratch_path.clone();
        let workdir = scratch.parent().unwrap().to_owned();
        assert!(workdir.is_dir());
        let enclave = Arc::clone(&app.enclave);
        app.shutdown();
        assert!(!workdir.exists(), "{} outlived the app", workdir.display());
        assert!(enclave.ecall("ecall_test", 0, || ()).is_err(), "the enclave is destroyed");
    }
}

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
use std::sync::Arc;
use std::time::Duration;

use rmi::gc_helper::GcHelper;
use rmi::hash::HashScheme;
use runtime_sim::heap::{CollectorKind, HeapConfig};
use runtime_sim::value::Value;
use sgx_sim::cost::{ClockMode, CostModel, CostParams};
use sgx_sim::enclave::{Enclave, EnclaveConfig, TransitionStats};

use crate::annotation::Side;
use crate::class::MethodRef;
use crate::error::VmError;
use crate::exec::ctx::Ctx;
use crate::exec::world::{ClassIndex, ExecModel, World, WorldStatsSnapshot};
use crate::image_builder::NativeImage;
use crate::provider::{self, CrossingDir, EnclaveProvider, ProviderKind};
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
    /// 2 GB maximum heap; §6.1).
    pub heap_config: HeapConfig,
    /// Proxy hashing scheme.
    pub hash_scheme: HashScheme,
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
    pub switchless: Option<crate::exec::switchless::SwitchlessConfig>,
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
    /// `None` consults `MONTSALVAT_PROVIDER` at launch and defaults to
    /// [`ProviderKind::SimSgx`]; `Some(_)` pins the deployment mode
    /// regardless of the environment.
    pub provider: Option<ProviderKind>,
    /// Which garbage collector each isolate runs. `None` consults
    /// `MONTSALVAT_GC` at launch and falls back to
    /// `heap_config.collector` (default semispace); `Some(_)` pins the
    /// collector regardless of the environment — the same precedence
    /// the provider detector uses. The block collector's geometry is
    /// seeded from [`CostParams::gc_block_bytes`] so heap blocks and
    /// EPC charging agree.
    pub collector: Option<CollectorKind>,
}

impl Default for AppConfig {
    fn default() -> Self {
        AppConfig {
            cost_params: CostParams::paper_defaults(),
            clock_mode: ClockMode::Virtual,
            enclave_config: EnclaveConfig::default(),
            heap_config: HeapConfig::default(),
            hash_scheme: HashScheme::Wide,
            gc_helper_interval: Some(Duration::from_millis(100)),
            exec_model: ExecModel::native_image(),
            workdir: None,
            switchless: None,
            telemetry: None,
            trace: None,
            provider: None,
            collector: None,
        }
    }
}

/// Resolves the heap configuration an app's isolates actually launch
/// with: collector selection flows `AppConfig::collector` →
/// `MONTSALVAT_GC` → `heap_config.collector`, and the block size is
/// taken from the cost model (`CostParams::gc_block_bytes`) so the
/// collector's blocks are the same granule the EPC charges per.
fn effective_heap_config(config: &AppConfig) -> HeapConfig {
    let collector =
        config.collector.or_else(CollectorKind::from_env).unwrap_or(config.heap_config.collector);
    HeapConfig {
        collector,
        block_bytes: config.cost_params.gc_block_bytes.max(1),
        ..config.heap_config.clone()
    }
}

/// Per-application serde state: the class-name interner shared by
/// both runtimes (modelling the per-peer tables each side builds from
/// the `Named` hints it has seen) and one shape cache per side (class
/// ids are world-local, so the caches must not mix).
#[derive(Debug, Default)]
pub(crate) struct SerdeState {
    pub(crate) names: rmi::NameInterner,
    shapes_trusted: rmi::ShapeCache,
    shapes_untrusted: rmi::ShapeCache,
}

impl SerdeState {
    /// The shape cache for classes of `side`'s world.
    pub(crate) fn shapes(&self, side: Side) -> &rmi::ShapeCache {
        match side {
            Side::Trusted => &self.shapes_trusted,
            Side::Untrusted => &self.shapes_untrusted,
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
    /// The deployment-mode provider every boundary crossing routes
    /// through (see [`crate::provider`]).
    pub provider: Arc<dyn EnclaveProvider>,
    /// The shared clock/cost model.
    pub cost: Arc<CostModel>,
    trusted: Arc<World>,
    untrusted: Arc<World>,
    pub(crate) switchless: parking_lot::Mutex<Option<Arc<crate::exec::switchless::SwitchlessPool>>>,
    pub(crate) serde: SerdeState,
}

impl AppShared {
    /// The world for `side`.
    pub fn world(&self, side: Side) -> &Arc<World> {
        match side {
            Side::Trusted => &self.trusted,
            Side::Untrusted => &self.untrusted,
        }
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
        self.serde.names.len()
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
    {
        // Forget our local handles on the dead proxies.
        let mut rmi = world.rmi.lock();
        for h in &dead {
            rmi.proxies.remove(h);
        }
    }
    // The sweep's crossing (and its transition span) parents under
    // this span, so helper activity shows up as its own call trees on
    // the sweeping side's lane.
    let tracer = Arc::clone(shared.cost.tracer());
    let sweep_span =
        tracer.start(side.lane(), "gc", telemetry::trace::current(), shared.cost.now_ns(), || {
            format!("gc-sweep:{side} dead={}", dead.len())
        });
    let _scope = sweep_span.as_ref().map(|s| telemetry::trace::set_current(s.context()));
    let other = shared.world(side.opposite());
    let bytes = dead.len() * 16;
    let release = || {
        let mut rmi = other.rmi.lock();
        let mut heap = other.isolate.lock_heap();
        let mut released = 0usize;
        for h in &dead {
            if let Some(mirror) = rmi.registry.remove(&mut heap, *h) {
                rmi.hash_of.remove(&mirror);
                released += 1;
            }
        }
        released
    };
    let released = match side {
        // The untrusted helper enters the trusted world to drop its mirrors.
        Side::Untrusted => {
            shared.provider.cross(CrossingDir::Enter, "ecall_gc_release", bytes, release)
        }
        // The trusted helper exits to drop untrusted mirrors.
        Side::Trusted => {
            shared.provider.cross(CrossingDir::Exit, "ocall_gc_release", bytes, release)
        }
    };
    if let Some(span) = sweep_span {
        tracer.finish(span, shared.cost.now_ns());
    }
    Ok(released?)
}

fn fresh_workdir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("montsalvat-{tag}-{}-{n}", std::process::id()))
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
/// assert!(app.enclave.stats().ecalls > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PartitionedApp {
    /// Shared runtime state (enclave, clock, worlds).
    pub shared: Arc<AppShared>,
    /// The simulated enclave (alias of `shared.enclave`).
    pub enclave: Arc<Enclave>,
    main: MethodRef,
    helpers: Vec<GcHelper>,
    workdir: PathBuf,
    owns_workdir: bool,
}

impl PartitionedApp {
    /// Loads both images, creates the enclave and isolates, restores
    /// image heaps and spawns the GC helpers.
    ///
    /// # Errors
    ///
    /// Fails if the images are for the wrong sides, enclave creation is
    /// rejected, or the scratch directory cannot be created.
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
        let cost = cost_model(&config);
        let enclave = Enclave::create(
            &config.enclave_config,
            &trusted_image.measurement_bytes(),
            Arc::clone(&cost),
        )?;
        let provider = provider::build(provider::detect(config.provider), &enclave, &cost);
        let shields = provider.shields_trusted_memory();
        if shields {
            // Commit the compiled trusted image + runtime to the EPC.
            enclave.alloc_heap(trusted_image.code_size_estimate())?;
            if config.exec_model.runtime_heap_overhead_bytes > 0 {
                enclave.alloc_heap(config.exec_model.runtime_heap_overhead_bytes)?;
                enclave.charge_heap_traffic(config.exec_model.runtime_heap_overhead_bytes);
            }
        }
        cost.charge_ns(config.exec_model.startup_ns);

        let (workdir, owns_workdir) = match &config.workdir {
            Some(dir) => (dir.clone(), false),
            None => (fresh_workdir("part"), true),
        };
        std::fs::create_dir_all(&workdir).map_err(|e| VmError::Io(e.to_string()))?;

        let heap_config = effective_heap_config(&config);
        let trusted = World::new(
            Side::Trusted,
            shields,
            Arc::new(ClassIndex::from_classes(&trusted_image.classes)),
            heap_config.clone(),
            config.hash_scheme,
            config.exec_model.clone(),
            workdir.join("trusted.scratch"),
            shields.then_some(&enclave),
        );
        let untrusted = World::new(
            Side::Untrusted,
            false,
            Arc::new(ClassIndex::from_classes(&untrusted_image.classes)),
            heap_config,
            config.hash_scheme,
            config.exec_model.clone(),
            workdir.join("untrusted.scratch"),
            None,
        );
        trusted.attach_recorder(Arc::clone(cost.recorder()));
        untrusted.attach_recorder(Arc::clone(cost.recorder()));
        let model_clock: Arc<dyn Fn() -> u64 + Send + Sync> = {
            let cost = Arc::clone(&cost);
            Arc::new(move || cost.now_ns())
        };
        let charge_clock: Arc<dyn Fn() -> u64 + Send + Sync> = {
            let cost = Arc::clone(&cost);
            Arc::new(move || cost.charged().as_nanos() as u64)
        };
        trusted.attach_tracer(Arc::clone(cost.tracer()), Arc::clone(&model_clock));
        untrusted.attach_tracer(Arc::clone(cost.tracer()), model_clock);
        trusted.attach_charge_clock(Arc::clone(&charge_clock));
        untrusted.attach_charge_clock(charge_clock);
        restore_image_heap(trusted_image, &trusted)?;
        restore_image_heap(untrusted_image, &untrusted)?;

        let shared = Arc::new(AppShared {
            enclave: Arc::clone(&enclave),
            provider,
            cost,
            trusted,
            untrusted,
            switchless: parking_lot::Mutex::new(None),
            serde: SerdeState::default(),
        });
        if let Some(sw_config) = &config.switchless {
            let serve_shared = Arc::clone(&shared);
            let serve = Arc::new(
                move |side: Side,
                      class_name: &str,
                      relay: &str,
                      _hash: Option<rmi::hash::ProxyHash>,
                      msg: &crate::exec::ctx::WireMsg| {
                    let callee = Arc::clone(serve_shared.world(side));
                    crate::exec::ctx::serve_relay(&serve_shared, &callee, class_name, relay, msg)
                },
            );
            let pool = crate::exec::switchless::SwitchlessPool::spawn(
                sw_config,
                serve,
                Arc::clone(&shared.cost),
            );
            *shared.switchless.lock() = Some(Arc::new(pool));
        }

        let mut helpers = Vec::new();
        if let Some(interval) = config.gc_helper_interval {
            for side in [Side::Trusted, Side::Untrusted] {
                let shared_ref = Arc::clone(&shared);
                helpers.push(GcHelper::spawn_recorded(
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

        let main = find_main(untrusted_image)?;
        Ok(PartitionedApp { enclave, shared, main, helpers, workdir, owns_workdir })
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
        self.shared.provider.cross(CrossingDir::Enter, "ecall_enter", 0, || {
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

    /// Enclave transition counters.
    ///
    /// This is a compatibility facade: the returned counters are read
    /// from the application's telemetry recorder (see
    /// [`PartitionedApp::telemetry_snapshot`]), so the two views agree
    /// by construction.
    pub fn sgx_stats(&self) -> TransitionStats {
        self.enclave.stats()
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

    /// RMI counters for one world.
    pub fn world_stats(&self, side: Side) -> WorldStatsSnapshot {
        self.shared.world(side).stats.snapshot()
    }

    /// Live worker/queue readings of the switchless pool, or `None`
    /// when the application runs classic crossings.
    pub fn switchless_stats(&self) -> Option<crate::exec::switchless::SwitchlessStats> {
        self.shared.switchless.lock().as_ref().map(|pool| pool.stats())
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
        rmi.proxies.values().filter(|&&p| heap.is_live(p)).count()
    }

    /// Stops the helpers and destroys the enclave.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        for helper in self.helpers.drain(..) {
            helper.stop();
        }
        // A handle still held by an in-flight crossing keeps the pool
        // alive; its threads then exit once the mailboxes drop.
        if let Some(pool) = self.shared.switchless.lock().take() {
            if let Ok(pool) = Arc::try_unwrap(pool) {
                pool.shutdown();
            }
        }
        self.enclave.destroy();
        if self.owns_workdir {
            let _ = std::fs::remove_dir_all(&self.workdir);
        }
    }
}

impl Drop for PartitionedApp {
    fn drop(&mut self) {
        self.shutdown_inner();
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
    /// Shared runtime state; both world slots alias the single world.
    pub shared: Arc<AppShared>,
    /// The simulated enclave (unused crossings-wise under
    /// [`Placement::Host`]).
    pub enclave: Arc<Enclave>,
    placement: Placement,
    main: MethodRef,
    workdir: PathBuf,
    owns_workdir: bool,
}

impl SingleWorldApp {
    /// Loads an unpartitioned image under the given placement.
    ///
    /// # Errors
    ///
    /// Fails if the image is partitioned (has a side), enclave creation
    /// fails, or the scratch directory cannot be created.
    pub fn launch(
        image: &NativeImage,
        placement: Placement,
        config: AppConfig,
    ) -> Result<Self, VmError> {
        if image.side.is_some() {
            return Err(VmError::Type("SingleWorldApp requires an unpartitioned image".into()));
        }
        let cost = cost_model(&config);
        let enclave =
            Enclave::create(&config.enclave_config, &image.measurement_bytes(), Arc::clone(&cost))?;
        let provider = provider::build(provider::detect(config.provider), &enclave, &cost);
        let in_enclave = placement == Placement::Enclave && provider.shields_trusted_memory();
        if in_enclave {
            enclave.alloc_heap(image.code_size_estimate())?;
            if config.exec_model.runtime_heap_overhead_bytes > 0 {
                enclave.alloc_heap(config.exec_model.runtime_heap_overhead_bytes)?;
                enclave.charge_heap_traffic(config.exec_model.runtime_heap_overhead_bytes);
            }
        }
        cost.charge_ns(config.exec_model.startup_ns);

        let (workdir, owns_workdir) = match &config.workdir {
            Some(dir) => (dir.clone(), false),
            None => (fresh_workdir("single"), true),
        };
        std::fs::create_dir_all(&workdir).map_err(|e| VmError::Io(e.to_string()))?;

        let side = if in_enclave { Side::Trusted } else { Side::Untrusted };
        let world = World::new(
            side,
            in_enclave,
            Arc::new(ClassIndex::from_classes(&image.classes)),
            effective_heap_config(&config),
            config.hash_scheme,
            config.exec_model.clone(),
            workdir.join("app.scratch"),
            in_enclave.then_some(&enclave),
        );
        world.attach_recorder(Arc::clone(cost.recorder()));
        world.attach_tracer(Arc::clone(cost.tracer()), {
            let cost = Arc::clone(&cost);
            Arc::new(move || cost.now_ns())
        });
        world.attach_charge_clock({
            let cost = Arc::clone(&cost);
            Arc::new(move || cost.charged().as_nanos() as u64)
        });
        restore_image_heap(image, &world)?;

        let shared = Arc::new(AppShared {
            enclave: Arc::clone(&enclave),
            provider,
            cost,
            trusted: Arc::clone(&world),
            untrusted: world,
            switchless: parking_lot::Mutex::new(None),
            serde: SerdeState::default(),
        });
        let main = find_main(image)?;
        Ok(SingleWorldApp { shared, enclave, placement, main, workdir, owns_workdir })
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
            Placement::Enclave => {
                self.shared.provider.cross(CrossingDir::Enter, "ecall_main", 0, run)?
            }
            Placement::Host => run(),
        }
    }

    /// Enclave transition counters (a view over the telemetry recorder,
    /// like [`PartitionedApp::sgx_stats`]).
    pub fn sgx_stats(&self) -> TransitionStats {
        self.enclave.stats()
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

    /// Destroys the enclave and cleans the scratch directory.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.enclave.destroy();
        if self.owns_workdir {
            let _ = std::fs::remove_dir_all(&self.workdir);
        }
    }
}

impl Drop for SingleWorldApp {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

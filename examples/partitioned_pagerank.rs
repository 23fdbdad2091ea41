//! Partitioned PageRank (the paper's GraphChi scenario, §6.5): the
//! I/O-heavy FastSharder runs outside the enclave, the compute-heavy
//! engine inside, and the phase breakdown shows sharding returning to
//! native speed after partitioning.
//!
//! ```sh
//! cargo run --release --example partitioned_pagerank
//! ```

use montsalvat::baselines::Deployment;

fn main() {
    let (vertices, edges, shards) = (10_000i64, 40_000i64, 4i64);
    println!("PageRank on an RMAT graph: {vertices} vertices, {edges} edges, {shards} shards\n");
    println!("{:>12} {:>10} {:>10} {:>10}", "config", "total(s)", "sharding", "engine");
    for config in [experiments_cfg::NoSgx, experiments_cfg::NoPart, experiments_cfg::Part] {
        let run = config.run(vertices, edges, shards);
        println!("{:>12} {:>10.3} {:>10.3} {:>10.3}", config.label(), run.0, run.1, run.2);
    }
    println!("\nAfter partitioning, the sharding phase runs at native speed (no enclave I/O).");
    let _ = Deployment::all(); // the baselines crate provides the deployment models
}

/// Thin wrappers over the graph workload so the example stays readable.
mod experiments_cfg {
    use std::sync::Arc;

    use montsalvat::core::annotation::Trust;
    use montsalvat::core::class::{ClassDef, Instr, MethodDef, MethodKind, MethodRef, CTOR};
    use montsalvat::core::exec::app::{AppConfig, PartitionedApp, Placement, SingleWorldApp};
    use montsalvat::core::image_builder::{
        build_partitioned_images, build_unpartitioned_image, ImageOptions,
    };
    use montsalvat::core::transform::transform;
    use montsalvat::core::VmError;
    use montsalvat::graphchi;
    use montsalvat::runtime::value::Value;

    pub use Config::*;

    #[derive(Clone, Copy)]
    pub enum Config {
        NoSgx,
        NoPart,
        Part,
    }

    impl Config {
        pub fn label(&self) -> &'static str {
            match self {
                NoSgx => "NoSGX",
                NoPart => "NoPart",
                Part => "Part",
            }
        }

        /// Returns `(total, sharding, engine)` model seconds.
        pub fn run(&self, vertices: i64, edges: i64, shards: i64) -> (f64, f64, f64) {
            let partitioned = matches!(self, Part);
            let program = graph_program(partitioned);
            let entries = vec![
                MethodRef::new("FastSharder", CTOR),
                MethodRef::new("FastSharder", "shard"),
                MethodRef::new("GraphChiEngine", CTOR),
                MethodRef::new("GraphChiEngine", "run"),
            ];
            let options = ImageOptions::with_entry_points(entries);
            let dir = std::env::temp_dir().join(format!(
                "pagerank_example_{}_{}",
                std::process::id(),
                self.label()
            ));
            let dir_str = dir.to_string_lossy().into_owned();
            let drive = |ctx: &mut montsalvat::core::Ctx<'_>| {
                let sharder = ctx.new_object("FastSharder", &[])?;
                let t0 = ctx.cost_charged();
                ctx.call(
                    &sharder,
                    "shard",
                    &[
                        Value::from(dir_str.as_str()),
                        Value::Int(vertices),
                        Value::Int(edges),
                        Value::Int(shards),
                        Value::Int(7),
                    ],
                )?;
                let t1 = ctx.cost_charged();
                let engine = ctx.new_object("GraphChiEngine", &[])?;
                ctx.call(&engine, "run", &[Value::from(dir_str.as_str()), Value::Int(4)])?;
                let t2 = ctx.cost_charged();
                Ok(((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64()))
            };
            let (sharding, engine) = if partitioned {
                let tp = transform(&program);
                let (trusted, untrusted) =
                    build_partitioned_images(&tp, &options, &options).expect("images");
                let app = PartitionedApp::launch(&trusted, &untrusted, AppConfig::default())
                    .expect("launch");
                app.enter_untrusted(drive).expect("runs")
            } else {
                let image = build_unpartitioned_image(&program, &options).expect("image");
                let placement =
                    if matches!(self, NoSgx) { Placement::Host } else { Placement::Enclave };
                let app = SingleWorldApp::launch(&image, placement, AppConfig::default())
                    .expect("launch");
                app.enter(drive).expect("runs")
            };
            std::fs::remove_dir_all(&dir).ok();
            (sharding + engine, sharding, engine)
        }
    }

    /// Modelled cost of sharding one edge, in ns (the managed sharder's
    /// per-edge work; the Fig. 9 harness charges the same).
    const SHARDER_NS_PER_EDGE: u64 = 7_500;
    /// Modelled cost of one PageRank edge update, in ns.
    const ENGINE_NS_PER_EDGE: u64 = 1_900;

    fn graph_program(partitioned: bool) -> montsalvat::core::Program {
        let (sharder_trust, engine_trust, main_trust) = if partitioned {
            (Trust::Untrusted, Trust::Trusted, Trust::Untrusted)
        } else {
            (Trust::Neutral, Trust::Neutral, Trust::Neutral)
        };
        let sharder_body: montsalvat::core::class::NativeFn = Arc::new(|ctx, _this, args| {
            let dir = args[0].as_str().expect("dir").to_owned();
            let v = args[1].as_int().expect("v") as u32;
            let e = args[2].as_int().expect("e") as usize;
            let p = args[3].as_int().expect("p") as usize;
            let seed = args[4].as_int().expect("seed") as u64;
            let backend = ctx.io_backend();
            let edges = graphchi::rmat::generate(v, e, graphchi::rmat::RmatParams::default(), seed);
            let graph = graphchi::sharder::shard(&backend, &dir, v, &edges, p)
                .map_err(|err| VmError::App(err.to_string()))?;
            graphchi::sharder::save_meta(&backend, &graph)
                .map_err(|err| VmError::App(err.to_string()))?;
            ctx.charge_compute_ns(graph.edge_count() * SHARDER_NS_PER_EDGE);
            Ok(Value::Int(graph.edge_count() as i64))
        });
        let engine_body: montsalvat::core::class::NativeFn = Arc::new(|ctx, _this, args| {
            let dir = args[0].as_str().expect("dir").to_owned();
            let iters = args[1].as_int().expect("iters") as u32;
            let backend = ctx.io_backend();
            let graph = graphchi::sharder::load_meta(&backend, &dir)
                .map_err(|err| VmError::App(err.to_string()))?;
            let ws = graph.num_vertices as usize * 16 + graph.edge_count() as usize * 8;
            let work_ns = graph.edge_count() * iters as u64 * ENGINE_NS_PER_EDGE;
            let result = ctx
                .compute_with(ws, work_ns, || {
                    graphchi::engine::run(
                        &backend,
                        &graph,
                        &graphchi::programs::PageRank::default(),
                        iters,
                    )
                })
                .map_err(|err| VmError::App(err.to_string()))?;
            Ok(Value::Float(result.values.iter().sum()))
        });
        let empty_ctor = || {
            MethodDef::interpreted(
                CTOR,
                MethodKind::Constructor,
                0,
                0,
                vec![Instr::Return { value: None }],
            )
        };
        let sharder = ClassDef::new("FastSharder")
            .trust(sharder_trust)
            .method(empty_ctor())
            .method(MethodDef::native("shard", MethodKind::Instance, 5, vec![], sharder_body));
        let engine = ClassDef::new("GraphChiEngine")
            .trust(engine_trust)
            .method(empty_ctor())
            .method(MethodDef::native("run", MethodKind::Instance, 2, vec![], engine_body));
        let main = ClassDef::new("Main").trust(main_trust).method(MethodDef::interpreted(
            "main",
            MethodKind::Static,
            0,
            0,
            vec![Instr::Return { value: None }],
        ));
        montsalvat::core::Program::new(vec![sharder, engine, main], MethodRef::new("Main", "main"))
            .expect("program is well-formed")
    }
}

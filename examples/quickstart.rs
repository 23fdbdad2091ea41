//! Quickstart: partition the paper's Listing-1 bank application and run
//! it through the simulated enclave.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use montsalvat::core::annotation::Side;
use montsalvat::core::codegen;
use montsalvat::core::exec::app::{AppConfig, PartitionedApp};
use montsalvat::core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat::core::samples::bank_program;
use montsalvat::core::transform::transform;
use montsalvat::telemetry::Counter;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Phase 1+2: annotated program -> bytecode transformation.
    let program = bank_program();
    println!("application classes:");
    for class in &program.classes {
        println!("  {} {}", class.trust.annotation_name(), class.name);
    }
    let transformed = transform(&program);

    // The SGX code generator's artefacts (EDL + bridge C) are real,
    // inspectable outputs of the build.
    let artefacts = codegen::generate(&transformed);
    println!("\ngenerated EDL:\n{}", artefacts.edl);

    // Phase 3: native-image partitioning (reachability + pruning).
    let (trusted, untrusted) =
        build_partitioned_images(&transformed, &ImageOptions::default(), &ImageOptions::default())?;
    println!(
        "trusted image: {} classes ({} B est.), untrusted image: {} classes ({} B est.)",
        trusted.classes.len(),
        trusted.code_size_estimate(),
        untrusted.classes.len(),
        untrusted.code_size_estimate(),
    );

    // Phase 4: the final SGX application.
    let app = PartitionedApp::launch(&trusted, &untrusted, AppConfig::default())?;
    println!("\nenclave measurement: {}", app.enclave.measurement().to_hex());

    app.run_main()?;

    let stats = app.telemetry_snapshot();
    println!("\nafter main():");
    println!(
        "  ecalls: {}, ocalls: {}",
        stats.counter(Counter::Ecalls),
        stats.counter(Counter::Ocalls)
    );
    println!("  bytes marshalled in: {}", stats.counter(Counter::BytesIn));
    println!("  MEE-charged enclave heap traffic: {} B", stats.counter(Counter::MeeBytes));
    println!("  mirrors in enclave registry: {}", app.registry_len(Side::Trusted));
    println!("  proxies created: {}", app.telemetry().counter(Counter::ProxiesCreated));
    app.shutdown();
    Ok(())
}

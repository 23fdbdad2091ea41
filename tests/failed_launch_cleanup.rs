//! A launch that fails after creating its scratch directory removes it.
//!
//! Both app shapes create `montsalvat-{part,single}-<pid>-<n>` in the
//! temp dir before they look for `main`. An image without entry points
//! has no `main`, so its launch fails after that point, and must leave
//! no such directory behind. This file holds a single test, so no other
//! test in this process creates a directory with the same prefix.

use montsalvat::core::exec::app::{AppConfig, PartitionedApp, Placement, SingleWorldApp};
use montsalvat::core::image_builder::{
    build_partitioned_images, build_unpartitioned_image, ImageOptions,
};
use montsalvat::core::provider::ProviderKind;
use montsalvat::core::samples::bank_program;
use montsalvat::core::transform::transform;
use montsalvat::core::VmError;

fn config() -> AppConfig {
    AppConfig { provider: Some(ProviderKind::SimSgx), ..AppConfig::default() }
}

fn assert_missing_main<T>(launched: Result<T, VmError>, label: &str) {
    match launched {
        Err(VmError::UnknownMethod { method, .. }) => assert_eq!(method, "main", "{label}"),
        Err(other) => panic!("{label}: failed for another reason: {other}"),
        Ok(_) => panic!("{label}: launched without a main"),
    }
}

#[test]
fn failed_launches_leave_no_scratch_directory() {
    let options = ImageOptions::default();
    let (trusted, mut untrusted) =
        build_partitioned_images(&transform(&bank_program()), &options, &options)
            .expect("images build");
    untrusted.entry_points.clear();
    assert_missing_main(PartitionedApp::launch(&trusted, &untrusted, config()), "partitioned");

    let mut single = build_unpartitioned_image(&bank_program(), &options).expect("image builds");
    single.entry_points.clear();
    for placement in [Placement::Enclave, Placement::Host] {
        let launched = SingleWorldApp::launch(&single, placement, config());
        assert_missing_main(launched, &format!("single/{placement:?}"));
    }

    let pid = format!("{:010}", std::process::id());
    let prefixes = [format!("montsalvat-part-{pid}-"), format!("montsalvat-single-{pid}-")];
    let left: Vec<String> = std::fs::read_dir(std::env::temp_dir())
        .expect("temp dir is readable")
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| prefixes.iter().any(|prefix| name.starts_with(prefix)))
        .collect();
    assert!(left.is_empty(), "failed launches left scratch directories: {left:?}");
}

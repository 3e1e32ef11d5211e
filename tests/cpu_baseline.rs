//! The build targets x86-64-v3. `.cargo/config.toml` sets
//! `target-cpu=x86-64-v3` for every x86_64 build, and the collide's
//! chunk windows rely on it to run four lanes wide. A build that
//! silently lost the setting would still pass every other test, only
//! slower, so this fails it here.

#[cfg(target_arch = "x86_64")]
#[test]
fn x86_64_builds_target_x86_64_v3() {
    let v3 = cfg!(target_feature = "avx2") && cfg!(target_feature = "fma");
    assert!(
        v3,
        "this x86_64 build lacks AVX2/FMA: `.cargo/config.toml` sets \
         `-C target-cpu=x86-64-v3` for x86_64, and a `RUSTFLAGS` environment \
         variable overrides it (unset RUSTFLAGS, or add the flag to it)"
    );
}

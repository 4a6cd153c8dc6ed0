//! Float accumulation in `hermes-serve` and `hermes-bench` goes through the
//! ordered fold `hermes_serve::tallies::ordered_sum`: float addition is not
//! associative, so a fold free to change its order breaks bitwise-identical
//! reports. Clippy has no lint for this.

use std::fs;
use std::path::Path;

/// `.sum::<f64>()`, `.product::<f64>()` or a `.fold(` seeded with a float.
fn has_float_fold(code: &str) -> bool {
    let code: String = code.chars().filter(|c| !c.is_whitespace()).collect();
    let float_seed = |(at, fold): (usize, &str)| {
        let seed = code[at + fold.len()..].trim_start_matches('-');
        let seed = &seed[..seed.find([',', ')']).unwrap_or(seed.len())];
        seed.starts_with(|c: char| c.is_ascii_digit())
            && (seed.contains('.') || seed.ends_with("f64"))
    };
    code.contains(".sum::<f64>")
        || code.contains(".product::<f64>")
        || code.match_indices(".fold(").any(float_seed)
}

#[test]
fn float_folds_go_through_the_ordered_helpers() {
    // The matcher must fire, or the scan below passes vacuously.
    assert!(has_float_fold("x.sum::<f64>()") && has_float_fold("x.fold(\n -1.5, f)"));
    assert!(!has_float_fold("x.fold(0, f)"));
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.join("crates/serve/src"), root.join("crates/bench/src")];
    let mut offenders = Vec::new();
    while let Some(dir) = dirs.pop() {
        for path in fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
        {
            if path.is_dir() {
                dirs.push(path);
            } else if !path.ends_with("serve/src/tallies.rs")
                && has_float_fold(&fs::read_to_string(&path).unwrap())
            {
                offenders.push(path);
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "use tallies::ordered_sum in {offenders:?}"
    );
}

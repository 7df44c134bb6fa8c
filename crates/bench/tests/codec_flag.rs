//! `poseidon-node --codec` takes the two codecs the build ships, and
//! `--policy` the schemes it ships. Any other spelling is refused by the
//! argument parser, before the launcher binds a port or spawns an endpoint.

use std::process::Command;

#[test]
fn unknown_codec_spellings_are_refused_before_any_endpoint_starts() {
    let cases = [
        ("--codec", "f16", "identity|onebit"),
        ("--codec", "cost", "identity|onebit"),
        ("--policy", "tree", "unknown policy \"tree\""),
    ];
    for (flag, value, names) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_poseidon-node"))
            .args([flag, value])
            .output()
            .expect("spawn poseidon-node");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag} {value} must fail: {stderr}");
        assert!(
            stderr.contains(names),
            "{flag} {value}: stderr must say {names:?}: {stderr}"
        );
        assert!(
            !stderr.contains("| tree"),
            "{flag} {value}: the usage offers no tree: {stderr}"
        );
        // The launcher echoes every endpoint's report on stdout.
        assert!(
            out.stdout.is_empty(),
            "{flag} {value}: an endpoint ran: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

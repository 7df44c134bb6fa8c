//! `poseidon-node --codec` takes the two codecs the build ships. Any other
//! spelling is refused by the argument parser, before the launcher binds a
//! port or spawns an endpoint.

use std::process::Command;

#[test]
fn unknown_codec_spellings_are_refused_before_any_endpoint_starts() {
    for codec in ["f16", "cost"] {
        let out = Command::new(env!("CARGO_BIN_EXE_poseidon-node"))
            .args(["--codec", codec])
            .output()
            .expect("spawn poseidon-node");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "--codec {codec} must fail: {stderr}");
        assert!(
            stderr.contains("identity|onebit"),
            "--codec {codec}: stderr must name the valid spellings: {stderr}"
        );
        // The launcher echoes every endpoint's report on stdout.
        assert!(
            out.stdout.is_empty(),
            "--codec {codec}: an endpoint ran: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

//! Command-line contract: every subcommand accepts only its own flags,
//! and a command line the system cannot run exits 1 with a message.
//! A mistyped or retired flag must fail loudly instead of silently
//! running the defaults.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gpu-denovo"))
        .args(args)
        .output()
        .expect("spawn gpu-denovo")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_flags_exit_1_naming_the_flag_and_the_accepted_ones() {
    for args in [
        &["run", "SPM_G", "--shards", "4"][..],
        &["run", "SPM_G", "--cofnig", "GD"][..],
    ] {
        let out = cli(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(args[2]), "{args:?} must name the flag: {err}");
        assert!(
            err.contains("--config") && err.contains("--xlink-latency"),
            "{args:?} must list the accepted flags: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
    let out = cli(&["list", "--json"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("--json"));
}

#[test]
fn accepted_flags_still_run() {
    let out = cli(&["run", "SPM_G", "--config", "GD"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        stdout.contains("\nGD "),
        "ran the requested config: {stdout}"
    );
    assert!(stdout.contains("run verified functionally."));
}

#[test]
fn command_lines_that_do_not_fit_the_fabric_exit_1_with_a_message() {
    const PINNED: &str = "pins a thread block to CU 15, but the system has 15 CUs";
    const BANKS: &str = "expected a device count from 1 to 15";
    for (args, says) in [
        (&["run", "XPC"][..], PINNED),
        (&["compare", "XPC"][..], PINNED),
        (&["profile", "XPC"][..], PINNED),
        (&["flow", "XPC"][..], PINNED),
        (&["lens", "XPC"][..], PINNED),
        (
            &["sweep", "--group", "fabric", "--jobs", "1", "--no-cache"][..],
            PINNED,
        ),
        (&["run", "SPM_G", "--devices", "16"][..], BANKS),
        (&["run", "SPM_G", "--devices", "20"][..], BANKS),
    ] {
        let out = cli(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(says), "{args:?} must say why: {err}");
        assert!(!err.contains("panicked"), "{args:?} panicked: {err}");
    }
    let out = cli(&["run", "XPC", "--devices", "2"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
}

#[test]
fn a_sweep_keeps_the_cells_that_ran_and_names_each_failure() {
    // On one device the three fabric benches split: XDEV_D and XDEV_S
    // run, while XPC pins a block to device 1 and fails under every
    // config.
    let csv = std::env::temp_dir().join(format!("gsim-cli-sweep-{}.csv", std::process::id()));
    let csv_arg = csv.to_str().expect("utf-8 temp path");
    let out = cli(&[
        "sweep",
        "--group",
        "fabric",
        "--jobs",
        "1",
        "--no-cache",
        "--out",
        csv_arg,
    ]);
    let (stdout, err) = (String::from_utf8_lossy(&out.stdout), stderr(&out));
    assert_eq!(out.status.code(), Some(1), "{err}");
    for bench in ["XDEV_D", "XDEV_S"] {
        let section = stdout
            .split("\n== ")
            .find(|s| s.starts_with(&format!("{bench} ==")))
            .unwrap_or_else(|| panic!("no {bench} table:\n{stdout}"));
        for config in ["GD", "GH", "DD", "DD+RO", "DH"] {
            assert!(
                section.contains(&format!("\n{config} ")),
                "{bench} lacks {config}:\n{section}"
            );
        }
    }
    assert!(!stdout.contains("== XPC =="), "{stdout}");
    assert!(err.contains("5 of 15 cells failed"), "{err}");
    for config in ["GD", "GH", "DD", "DD+RO", "DH"] {
        assert!(err.contains(&format!("XPC under {config}: ")), "{err}");
    }
    let rows = std::fs::read_to_string(&csv).expect("--out written");
    let _ = std::fs::remove_file(&csv);
    assert_eq!(
        rows.lines().count(),
        1 + 10,
        "header + the 10 cells that ran"
    );
    assert!(!rows.contains("XPC"));
}

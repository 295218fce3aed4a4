//! Command-line contract: every subcommand accepts only its own flags,
//! and a command line the system cannot run exits 1 with a message.
//! A mistyped or retired flag must fail loudly instead of silently
//! running the defaults.

use std::io::Read;
use std::process::{Command, Output, Stdio};

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

#[test]
fn view_commands_reject_bad_values_and_outputs_with_one_line() {
    // Every observed view parses its own flags and dispatches `--out`
    // by extension; each bad command line exits 1 with exactly this
    // message and prints nothing to stdout. The paths are never
    // written: both `--out` errors come before any file write.
    let dir = env!("CARGO_TARGET_TMPDIR");
    let csv = format!("{dir}/gsim-cli-view.csv");
    let txt = format!("{dir}/gsim-cli-view.txt");
    let unsupported =
        format!("unsupported --out file {txt:?}: expected .csv, .json, or .perfetto.json\n");
    let mut cases: Vec<(Vec<&str>, String)> = vec![
        (
            vec!["profile", "SPM_G", "--interval", "0"],
            "invalid --interval value \"0\": expected a positive cycle count\n".into(),
        ),
        (
            vec!["flow", "SPM_G", "--interval", "0"],
            "invalid --interval value \"0\": expected a positive cycle count\n".into(),
        ),
        (
            vec!["flow", "SPM_G", "--period", "x"],
            "invalid --period value \"x\": expected a positive request count\n".into(),
        ),
        (
            vec!["lens", "SPM_G", "--topk", "0"],
            "invalid --topk value \"0\": expected a positive line count\n".into(),
        ),
        (
            vec!["profile", "SPM_G", "--topn"],
            "missing value after --topn (a line count)\n".into(),
        ),
        (
            vec!["flow", "SPM_G", "--topn"],
            "missing value after --topn (a link count)\n".into(),
        ),
        (
            vec!["lens", "SPM_G", "--topn"],
            "missing value after --topn (a line count)\n".into(),
        ),
    ];
    for view in ["profile", "flow", "lens"] {
        cases.push((
            vec![view, "SPM_G", "--topn", "x"],
            "invalid --topn value \"x\": expected an integer\n".into(),
        ));
        cases.push((
            vec![view, "SPM_G", "--out", &csv],
            format!("{view} --out needs a single run: add --config\n"),
        ));
        cases.push((
            vec![view, "SPM_G", "--out", &txt, "--config", "DD"],
            unsupported.clone(),
        ));
        cases.push((
            vec![view, "SPM_G", "--config", "DD", "--json", "--out", &csv],
            format!("{view} --json cannot be combined with --out\n"),
        ));
    }
    for (args, want) in cases {
        let out = cli(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        assert_eq!(stderr(&out), want, "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
    assert!(!std::path::Path::new(&csv).exists(), "{csv} was written");
    assert!(!std::path::Path::new(&txt).exists(), "{txt} was written");
}

#[test]
fn a_reader_closing_stdout_early_ends_the_cli_without_a_panic() {
    // About 135 KB of JSON: more than a pipe buffers, so the CLI is
    // still writing when the reader goes away.
    let mut child = Command::new(env!("CARGO_BIN_EXE_gpu-denovo"))
        .args(["lens", "SPM_L", "--config", "DD", "--json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gpu-denovo");
    let mut head = [0u8; 8];
    let mut stdout = child.stdout.take().expect("piped stdout");
    stdout.read_exact(&mut head).expect("read the first bytes");
    drop(stdout);
    let out = child.wait_with_output().expect("wait for gpu-denovo");
    assert_eq!(&head[..2], b"[{", "stdout starts with the JSON array");
    assert_ne!(out.status.code(), Some(101), "{}", stderr(&out));
    assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
}

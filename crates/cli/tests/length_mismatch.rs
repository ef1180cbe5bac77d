//! An index stored at another filter length than the shipped encoder's
//! (here: 1000 bits, the person CLK before its 512-bit default) is
//! refused with a typed error naming both lengths by every command that
//! probes or writes it, and its files are left byte for byte as they were.

use pprl_core::bitvec::BitVec;
use pprl_encoding::encoder::RecordEncoderConfig;
use pprl_index::manifest::IndexConfig;
use pprl_index::store::IndexStore;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const STORED_LEN: usize = 1000;

/// Runs `pprl` with the whitespace-separated arguments of `line`.
fn pprl(line: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pprl"))
        .args(line.split_whitespace())
        .output()
        .expect("runs the pprl binary")
}

/// Every file under `dir`, by path, with its bytes.
fn files(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            out.extend(files(&path));
        } else {
            out.insert(path.clone(), std::fs::read(&path).unwrap());
        }
    }
    out
}

#[test]
fn commands_refuse_an_index_of_another_filter_length() {
    let dir = std::env::temp_dir().join(format!("pprl-cli-length-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (a, b, idx) = (path("a.csv"), path("b.csv"), path("idx"));

    let out = pprl(&format!(
        "generate --out-a {a} --out-b {b} --size 20 --overlap 5"
    ));
    assert!(out.status.success(), "{out:?}");
    let mut store = IndexStore::create(Path::new(&idx), IndexConfig::new(STORED_LEN, 2)).unwrap();
    let rows: Vec<(u64, BitVec)> = (0..6u64)
        .map(|id| {
            let ones: Vec<usize> = (id as usize..STORED_LEN).step_by(3).collect();
            (id, BitVec::from_positions(STORED_LEN, &ones).unwrap())
        })
        .collect();
    store.insert_batch(&rows).unwrap();
    store.flush().unwrap();
    drop(store);
    let before = files(Path::new(&idx));

    let shipped = RecordEncoderConfig::person_clk(b"k".to_vec()).params.len;
    assert_ne!(shipped, STORED_LEN);
    for args in [
        format!("index query --dir {idx} --input {a} --key k --row 0"),
        format!("index insert --dir {idx} --input {a} --key k"),
        format!("link --a {a} --b {b} --key k --backend index --index-dir {idx}"),
    ] {
        let out = pprl(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        for bits in [STORED_LEN, shipped] {
            assert!(
                stderr.contains(&format!("{bits} bits")),
                "{args:?}: {stderr}"
            );
        }
        assert_eq!(files(Path::new(&idx)), before, "{args:?} changed the index");
    }
    std::fs::remove_dir_all(&dir).ok();
}

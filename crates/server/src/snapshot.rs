//! Snapshot isolation for index reads.
//!
//! The server never queries the [`pprl_index::store::IndexStore`] directly.
//! Instead a [`SnapshotHub`] holds the current [`Snapshot`] — an
//! immutable in-memory [`IndexReader`] tagged with a monotonically
//! increasing generation. Queries *pin* the current snapshot (clone the
//! `Arc`) and keep using it for their whole lifetime; installs (after an
//! insert or a compaction's atomic manifest swap) replace the current
//! `Arc` without touching pinned ones. A reader therefore always sees
//! one consistent generation — never a half-swapped manifest — and never
//! blocks on, or is blocked by, the writer.
//!
//! A snapshot's rows are resident arenas it shares with the store, so
//! it never reads a segment file: a compaction deletes the files it
//! supersedes at once, and a pinned old generation keeps answering from
//! the arenas it holds until its last reader drops it.

use pprl_index::query::IndexReader;
use std::sync::{Arc, Mutex};

/// One immutable, queryable view of the index.
#[derive(Debug)]
pub struct Snapshot {
    /// Monotonic generation number (0 for the snapshot built at open).
    pub generation: u64,
    /// The in-memory reader serving this generation.
    pub reader: IndexReader,
}

/// Publishes snapshots to readers.
#[derive(Debug)]
pub struct SnapshotHub {
    current: Mutex<Arc<Snapshot>>,
}

impl SnapshotHub {
    /// Creates a hub serving `reader` as generation 0.
    pub fn new(reader: IndexReader) -> Self {
        SnapshotHub {
            current: Mutex::new(Arc::new(Snapshot {
                generation: 0,
                reader,
            })),
        }
    }

    /// Pins the current snapshot. The caller may hold it for as long as
    /// it likes; installs never invalidate it.
    pub fn pin(&self) -> Arc<Snapshot> {
        self.current.lock().expect("snapshot lock").clone()
    }

    /// Generation currently being served.
    pub fn generation(&self) -> u64 {
        self.pin().generation
    }

    /// Atomically installs `reader` as the next generation. Readers of
    /// the previous one keep it until they drop their pin. Returns the
    /// new generation.
    pub fn install(&self, reader: IndexReader) -> u64 {
        let mut current = self.current.lock().expect("snapshot lock");
        *current = Arc::new(Snapshot {
            generation: current.generation + 1,
            reader,
        });
        current.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pprl_core::bitvec::BitVec;

    fn reader_with(ids: &[u64]) -> IndexReader {
        let records = ids
            .iter()
            .map(|&id| {
                (
                    id,
                    BitVec::from_positions(32, &[(id as usize) % 32]).unwrap(),
                )
            })
            .collect();
        IndexReader::new(vec![records], 32).unwrap()
    }

    #[test]
    fn pinned_snapshot_survives_installs() {
        let hub = SnapshotHub::new(reader_with(&[1, 2]));
        let pinned = hub.pin();
        assert_eq!(pinned.generation, 0);
        let g1 = hub.install(reader_with(&[1, 2, 3]));
        assert_eq!(g1, 1);
        // The pinned snapshot still serves the old view.
        assert_eq!(pinned.reader.len(), 2);
        assert_eq!(hub.pin().reader.len(), 3);
        assert_eq!(hub.generation(), 1);
    }
}

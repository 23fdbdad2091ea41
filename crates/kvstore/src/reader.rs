//! The store reader.
//!
//! PalDB optimises reads by memory-mapping the store file (§6.5). The
//! reader reproduces that profile: `open` maps the whole file in one
//! bulk read (a single ocall when running in an enclave), after which
//! every `get` is a pure in-memory probe with zero crossings.

use std::io::SeekFrom;
use std::path::Path;

use crate::backend::Backend;
use crate::format::{decode_record, key_hash, StoreError, FOOTER_LEN, MAGIC, SLOT_LEN};

/// A read-only view of a finalized store.
#[derive(Debug)]
pub struct StoreReader {
    data: Vec<u8>,
    index_offset: usize,
    n_slots: u64,
}

impl StoreReader {
    /// Opens and "memory-maps" a finalized store.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a corrupt/unfinalized file.
    pub fn open(backend: &Backend, path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let mut file = backend.open(path)?;
        let len = file.seek(SeekFrom::End(0))? as usize;
        if len < FOOTER_LEN {
            return Err(StoreError::Corrupt("file shorter than footer".into()));
        }
        file.seek(SeekFrom::Start(0))?;
        // The mmap analogue: one bulk transfer.
        let mut data = vec![0u8; len];
        file.read_exact(&mut data)?;

        let footer = &data[len - FOOTER_LEN..];
        let index_offset = u64::from_le_bytes(footer[0..8].try_into().expect("8 bytes")) as usize;
        let magic = u64::from_le_bytes(footer[16..24].try_into().expect("8 bytes"));
        if magic != MAGIC {
            return Err(StoreError::Corrupt("bad magic (store not finalized?)".into()));
        }
        if index_offset + 8 > len - FOOTER_LEN {
            return Err(StoreError::Corrupt("index offset out of range".into()));
        }
        let n_slots =
            u64::from_le_bytes(data[index_offset..index_offset + 8].try_into().expect("8 bytes"));
        if !n_slots.is_power_of_two()
            || index_offset + 8 + (n_slots as usize) * SLOT_LEN > len - FOOTER_LEN
        {
            return Err(StoreError::Corrupt("index truncated".into()));
        }
        Ok(StoreReader { data, index_offset, n_slots })
    }

    fn slot(&self, i: u64) -> (u64, u64) {
        let base = self.index_offset + 8 + (i as usize) * SLOT_LEN;
        let h = u64::from_le_bytes(self.data[base..base + 8].try_into().expect("8 bytes"));
        let o = u64::from_le_bytes(self.data[base + 8..base + 16].try_into().expect("8 bytes"));
        (h, o)
    }

    /// Looks up `key`; pure in-memory probing, no I/O.
    ///
    /// # Errors
    ///
    /// Fails only if the file is corrupt (dangling offsets).
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let hash = key_hash(key);
        let mask = self.n_slots - 1;
        let mut i = hash & mask;
        for _ in 0..self.n_slots {
            let (slot_hash, slot_off) = self.slot(i);
            if slot_off == 0 {
                return Ok(None);
            }
            if slot_hash == hash {
                let (k, v) =
                    decode_record(&self.data[..self.index_offset], (slot_off - 1) as usize)?;
                if k == key {
                    return Ok(Some(v.to_vec()));
                }
            }
            i = (i + 1) & mask;
        }
        Ok(None)
    }

    /// Iterates over the *live* key/value pairs (latest value per key).
    pub fn iter(&self) -> StoreIter<'_> {
        StoreIter { reader: self, slot: 0 }
    }
}

/// Iterator over live `(key, value)` pairs, in index order.
#[derive(Debug)]
pub struct StoreIter<'a> {
    reader: &'a StoreReader,
    slot: u64,
}

impl Iterator for StoreIter<'_> {
    type Item = (Vec<u8>, Vec<u8>);

    fn next(&mut self) -> Option<Self::Item> {
        while self.slot < self.reader.n_slots {
            let (_, off) = self.reader.slot(self.slot);
            self.slot += 1;
            if off != 0 {
                if let Ok((k, v)) =
                    decode_record(&self.reader.data[..self.reader.index_offset], (off - 1) as usize)
                {
                    return Some((k.to_vec(), v.to_vec()));
                }
            }
        }
        None
    }
}

//! Device memory: flat `f64` buffers addressed by `(buffer, element)`.
//!
//! The boards' GDDR5 sits outside the beam spot (§IV-D: "data stored in
//! the main memory is not to be corrupted"), so the backing store here is
//! *never* struck directly; corruption enters only through the cache
//! hierarchy and functional units and persists in memory only via
//! write-back of dirty corrupted lines (see [`crate::cache`]).

use radcrit_core::exec;
use serde::{Deserialize, Serialize};

use crate::error::AccelError;

/// Identifies one allocation in [`DeviceMemory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BufferId(pub(crate) usize);

impl BufferId {
    /// The raw allocation index.
    pub fn index(&self) -> usize {
        self.0
    }

    /// This buffer's bit in a 64-bit buffer set. Allocations past the
    /// 63rd share the top bit, so a set over-approximates, never misses.
    pub(crate) fn bit(self) -> u64 {
        1 << self.0.min(63)
    }
}

/// A global element address: which buffer and which element within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ElemAddr {
    /// The buffer containing the element.
    pub buffer: BufferId,
    /// The element index within the buffer.
    pub index: usize,
}

/// Simulated device DRAM holding named `f64` allocations.
///
/// # Examples
///
/// ```
/// use radcrit_accel::memory::DeviceMemory;
///
/// let mut mem = DeviceMemory::new();
/// let buf = mem.alloc("matrix", 16);
/// mem.write(buf, 3, 2.5)?;
/// assert_eq!(mem.read(buf, 3)?, 2.5);
/// # Ok::<(), radcrit_accel::AccelError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DeviceMemory {
    buffers: Vec<Buffer>,
}

#[derive(Debug, Clone)]
struct Buffer {
    name: String,
    data: Vec<f64>,
    /// Byte offset of this buffer in the flat device address space; used
    /// by the cache model to derive line addresses.
    base_addr: usize,
    /// Whether the buffer was written since the last
    /// [`DeviceMemory::reset_write_tracking`]; lets golden-prefix
    /// snapshots store only the buffers that diverged from the
    /// post-setup template.
    written: bool,
}

impl DeviceMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a zero-initialized buffer of `len` elements.
    ///
    /// Buffers are laid out consecutively in a flat byte address space,
    /// aligned to 256 bytes like real GDDR5 allocations, so that distinct
    /// buffers never share a cache line.
    pub fn alloc(&mut self, name: impl Into<String>, len: usize) -> BufferId {
        const ALIGN: usize = 256;
        let base_addr = self
            .buffers
            .last()
            .map(|b| {
                let end = b.base_addr + b.data.len() * 8;
                end.div_ceil(ALIGN) * ALIGN
            })
            .unwrap_or(0);
        let id = BufferId(self.buffers.len());
        self.buffers.push(Buffer {
            name: name.into(),
            data: vec![0.0; len],
            base_addr,
            written: true,
        });
        id
    }

    /// Allocates a buffer initialized from `data`.
    pub fn alloc_init(&mut self, name: impl Into<String>, data: &[f64]) -> BufferId {
        let id = self.alloc(name, data.len());
        self.buffers[id.0].data.copy_from_slice(data);
        id
    }

    /// Reads one element.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::UnknownBuffer`] or [`AccelError::OutOfBounds`].
    pub fn read(&self, buf: BufferId, index: usize) -> Result<f64, AccelError> {
        let b = self.buffer(buf)?;
        b.data.get(index).copied().ok_or(AccelError::OutOfBounds {
            buffer: buf.0,
            index,
            len: b.data.len(),
        })
    }

    /// Writes one element.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::UnknownBuffer`] or [`AccelError::OutOfBounds`].
    pub fn write(&mut self, buf: BufferId, index: usize, value: f64) -> Result<(), AccelError> {
        let b = self.buffer_mut(buf)?;
        b.written = true;
        let len = b.data.len();
        match b.data.get_mut(index) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(AccelError::OutOfBounds {
                buffer: buf.0,
                index,
                len,
            }),
        }
    }

    /// XORs `mask` into the bit pattern of one element — the primitive a
    /// particle strike reduces to.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::UnknownBuffer`] or [`AccelError::OutOfBounds`].
    pub fn flip_bits(&mut self, buf: BufferId, index: usize, mask: u64) -> Result<(), AccelError> {
        let v = self.read(buf, index)?;
        self.write(buf, index, f64::from_bits(v.to_bits() ^ mask))
    }

    /// Borrows a whole buffer.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::UnknownBuffer`].
    pub fn slice(&self, buf: BufferId) -> Result<&[f64], AccelError> {
        Ok(&self.buffer(buf)?.data)
    }

    /// Copies a buffer out as an owned vector.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::UnknownBuffer`].
    pub fn to_vec(&self, buf: BufferId) -> Result<Vec<f64>, AccelError> {
        Ok(self.buffer(buf)?.data.clone())
    }

    /// Moves a buffer's contents out without copying, leaving the buffer
    /// empty (length 0). The engine uses this to return the output; a
    /// later [`DeviceMemory::restore_from`] re-materializes the buffer.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::UnknownBuffer`].
    pub fn take_vec(&mut self, buf: BufferId) -> Result<Vec<f64>, AccelError> {
        let b = self.buffer_mut(buf)?;
        b.written = true;
        Ok(std::mem::take(&mut b.data))
    }

    /// Marks every buffer clean; subsequent writes set the per-buffer
    /// written flag read back by [`DeviceMemory::written_delta`].
    pub fn reset_write_tracking(&mut self) {
        for b in &mut self.buffers {
            b.written = false;
        }
    }

    /// Clones the buffers written since the last
    /// [`DeviceMemory::reset_write_tracking`]. Together with the
    /// post-setup image they reconstruct this memory exactly — kernels
    /// typically write a small subset of their footprint (inputs are
    /// read-only), so a delta snapshot is far cheaper than a full clone.
    pub fn written_delta(&self) -> Vec<(BufferId, Vec<f64>)> {
        self.buffers
            .iter()
            .enumerate()
            .filter(|(_, b)| b.written)
            .map(|(i, b)| {
                // Capture on the SIMD execution core: reserve + copy
                // instead of `clone`, so delta capture, apply and
                // restore all route through the same primitive.
                let mut data = vec![0.0; b.data.len()];
                exec::copy_f64(&b.data, &mut data);
                (BufferId(i), data)
            })
            .collect()
    }

    /// Overwrites the buffers named by `delta` (see
    /// [`DeviceMemory::written_delta`]), reusing their allocations when
    /// lengths match.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::UnknownBuffer`] when a delta entry names a
    /// buffer this memory does not have.
    pub fn apply_delta(&mut self, delta: &[(BufferId, Vec<f64>)]) -> Result<(), AccelError> {
        for (buf, data) in delta {
            let b = self.buffer_mut(*buf)?;
            b.written = true;
            if b.data.len() == data.len() {
                exec::copy_f64(data, &mut b.data);
            } else {
                b.data.clone_from(data);
            }
        }
        Ok(())
    }

    /// Total bytes of element data across all buffers.
    pub fn total_bytes(&self) -> usize {
        self.buffers.iter().map(|b| b.data.len() * 8).sum()
    }

    /// Overwrites this memory's contents from `template`, reusing
    /// existing allocations where lengths match (a derived
    /// `Clone::clone_from` would reallocate every buffer). The two
    /// memories must be images of the same program setup; layouts that
    /// differ fall back to a full clone.
    pub fn restore_from(&mut self, template: &DeviceMemory) {
        if self.buffers.len() != template.buffers.len() {
            self.buffers = template.buffers.clone();
            return;
        }
        for (dst, src) in self.buffers.iter_mut().zip(&template.buffers) {
            dst.base_addr = src.base_addr;
            dst.written = src.written;
            if dst.name != src.name {
                dst.name.clone_from(&src.name);
            }
            if dst.data.len() == src.data.len() {
                exec::copy_f64(&src.data, &mut dst.data);
            } else {
                dst.data.clone_from(&src.data);
            }
        }
    }

    /// [`DeviceMemory::restore_from`] restricted to buffers that may
    /// have diverged: a buffer is copied only when *either* side's
    /// written flag is set — `self` wrote it since its flags last
    /// mirrored `template`'s, or `template` wrote it since the sync
    /// point the caller tracks. Buffers with both flags clear are
    /// bit-equal by that contract and are skipped. Afterwards `self`'s
    /// flags mirror `template`'s exactly, like a full restore.
    ///
    /// Callers must guarantee the two memories share a sync lineage
    /// (see `RunScratch`'s fork path); layouts that differ fall back to
    /// a full restore.
    pub fn restore_written_from(&mut self, template: &DeviceMemory) {
        if self.buffers.len() != template.buffers.len() {
            self.restore_from(template);
            return;
        }
        for (dst, src) in self.buffers.iter_mut().zip(&template.buffers) {
            if dst.written || src.written {
                dst.base_addr = src.base_addr;
                if dst.name != src.name {
                    dst.name.clone_from(&src.name);
                }
                if dst.data.len() == src.data.len() {
                    exec::copy_f64(&src.data, &mut dst.data);
                } else {
                    dst.data.clone_from(&src.data);
                }
            }
            dst.written = src.written;
        }
    }

    /// Buffer length in elements.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::UnknownBuffer`].
    pub fn len_of(&self, buf: BufferId) -> Result<usize, AccelError> {
        Ok(self.buffer(buf)?.data.len())
    }

    /// One-lookup read window: the flat byte address of `start` plus the
    /// `len`-element slice beginning there. The bulk-load hot path's
    /// fused [`DeviceMemory::byte_addr`] + [`DeviceMemory::slice`].
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::UnknownBuffer`] or [`AccelError::OutOfBounds`].
    pub fn window(
        &self,
        buf: BufferId,
        start: usize,
        len: usize,
    ) -> Result<(usize, &[f64]), AccelError> {
        let b = self.buffer(buf)?;
        match b.data.get(start..start + len) {
            Some(w) => Ok((b.base_addr + start * 8, w)),
            None => Err(AccelError::OutOfBounds {
                buffer: buf.0,
                index: start + len.saturating_sub(1),
                len: b.data.len(),
            }),
        }
    }

    /// Mutable counterpart of [`DeviceMemory::window`]; marks the buffer
    /// written.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::UnknownBuffer`] or [`AccelError::OutOfBounds`].
    pub fn window_mut(
        &mut self,
        buf: BufferId,
        start: usize,
        len: usize,
    ) -> Result<(usize, &mut [f64]), AccelError> {
        let b = self.buffer_mut(buf)?;
        b.written = true;
        let blen = b.data.len();
        match b.data.get_mut(start..start + len) {
            Some(w) => Ok((b.base_addr + start * 8, w)),
            None => Err(AccelError::OutOfBounds {
                buffer: buf.0,
                index: start + len.saturating_sub(1),
                len: blen,
            }),
        }
    }

    /// The flat byte address of an element, used by the cache model.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::UnknownBuffer`] or [`AccelError::OutOfBounds`].
    pub fn byte_addr(&self, addr: ElemAddr) -> Result<usize, AccelError> {
        let b = self.buffer(addr.buffer)?;
        if addr.index >= b.data.len() {
            return Err(AccelError::OutOfBounds {
                buffer: addr.buffer.0,
                index: addr.index,
                len: b.data.len(),
            });
        }
        Ok(b.base_addr + addr.index * 8)
    }

    /// Maps a flat byte address back to the element containing it, if any.
    pub fn elem_at_byte(&self, byte: usize) -> Option<ElemAddr> {
        for (i, b) in self.buffers.iter().enumerate() {
            let end = b.base_addr + b.data.len() * 8;
            if byte >= b.base_addr && byte < end {
                return Some(ElemAddr {
                    buffer: BufferId(i),
                    index: (byte - b.base_addr) / 8,
                });
            }
        }
        None
    }

    fn buffer(&self, buf: BufferId) -> Result<&Buffer, AccelError> {
        self.buffers
            .get(buf.0)
            .ok_or(AccelError::UnknownBuffer(buf.0))
    }

    fn buffer_mut(&mut self, buf: BufferId) -> Result<&mut Buffer, AccelError> {
        self.buffers
            .get_mut(buf.0)
            .ok_or(AccelError::UnknownBuffer(buf.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alloc_read_write_roundtrip() {
        let mut mem = DeviceMemory::new();
        let b = mem.alloc("b", 4);
        assert_eq!(mem.read(b, 0).unwrap(), 0.0);
        mem.write(b, 2, 7.5).unwrap();
        assert_eq!(mem.read(b, 2).unwrap(), 7.5);
        assert_eq!(mem.len_of(b).unwrap(), 4);
    }

    #[test]
    fn alloc_init_copies() {
        let mut mem = DeviceMemory::new();
        let b = mem.alloc_init("init", &[1.0, 2.0]);
        assert_eq!(mem.to_vec(b).unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut mem = DeviceMemory::new();
        let b = mem.alloc("b", 2);
        assert!(matches!(
            mem.read(b, 2),
            Err(AccelError::OutOfBounds {
                index: 2,
                len: 2,
                ..
            })
        ));
        assert!(mem.write(b, 5, 0.0).is_err());
    }

    #[test]
    fn unknown_buffer_rejected() {
        let mem = DeviceMemory::new();
        assert_eq!(mem.read(BufferId(0), 0), Err(AccelError::UnknownBuffer(0)));
    }

    #[test]
    fn buffers_do_not_share_cache_lines() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc("a", 3); // 24 bytes
        let b = mem.alloc("b", 3);
        let end_a = mem
            .byte_addr(ElemAddr {
                buffer: a,
                index: 2,
            })
            .unwrap()
            + 8;
        let start_b = mem
            .byte_addr(ElemAddr {
                buffer: b,
                index: 0,
            })
            .unwrap();
        assert!(
            start_b >= 256,
            "second buffer must start on a fresh 256 B block"
        );
        assert!(start_b >= end_a);
        assert_eq!(start_b % 256, 0);
    }

    #[test]
    fn byte_addr_roundtrip() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc("a", 10);
        let b = mem.alloc("b", 10);
        for &(buf, idx) in &[(a, 0usize), (a, 9), (b, 0), (b, 5)] {
            let addr = ElemAddr {
                buffer: buf,
                index: idx,
            };
            let byte = mem.byte_addr(addr).unwrap();
            assert_eq!(mem.elem_at_byte(byte), Some(addr));
            // Any byte within the element maps back to it.
            assert_eq!(mem.elem_at_byte(byte + 7), Some(addr));
        }
    }

    #[test]
    fn elem_at_unmapped_byte_is_none() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc("a", 1); // occupies bytes [0, 8)
        let _ = a;
        assert_eq!(mem.elem_at_byte(8), None);
    }

    #[test]
    fn restore_written_skips_clean_buffers_and_mirrors_flags() {
        let mut src = DeviceMemory::new();
        let a = src.alloc_init("a", &[1.0, 2.0]);
        let b = src.alloc_init("b", &[3.0, 4.0]);
        let mut dst = src.clone();
        // Sync point: flags clear on both sides, images equal.
        src.reset_write_tracking();
        dst.reset_write_tracking();

        // Source writes only `b`; a fork restore must pick that up while
        // leaving the untouched `a` allocation alone.
        src.write(b, 0, 30.0).unwrap();
        dst.write(a, 1, -1.0).unwrap(); // local divergence, also synced back
        dst.restore_written_from(&src);
        assert_eq!(dst.read(a, 1).unwrap(), 2.0, "dst-written buffer restored");
        assert_eq!(dst.read(b, 0).unwrap(), 30.0, "src-written buffer copied");
        // Flags mirror the source exactly, like a full restore.
        assert_eq!(dst.written_delta().len(), src.written_delta().len());

        // With both sides clean since the sync, nothing is copied: a
        // behind-the-back divergence survives, proving the skip.
        src.reset_write_tracking();
        dst.reset_write_tracking();
        dst.buffer_mut(a).unwrap().data[0] = 99.0;
        dst.reset_write_tracking();
        dst.restore_written_from(&src);
        assert_eq!(dst.read(a, 0).unwrap(), 99.0, "clean buffers are skipped");
    }

    #[test]
    fn take_vec_moves_without_copy_and_restore_rebuilds() {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc_init("a", &[1.0, 2.0]);
        let b = mem.alloc("b", 4);
        mem.write(b, 0, 9.0).unwrap();
        let template = mem.clone();

        let taken = mem.take_vec(b).unwrap();
        assert_eq!(taken, vec![9.0, 0.0, 0.0, 0.0]);
        assert_eq!(mem.len_of(b).unwrap(), 0, "buffer left empty");

        mem.restore_from(&template);
        assert_eq!(mem.to_vec(a).unwrap(), vec![1.0, 2.0]);
        assert_eq!(mem.to_vec(b).unwrap(), vec![9.0, 0.0, 0.0, 0.0]);
        assert_eq!(mem.total_bytes(), template.total_bytes());
    }

    #[test]
    fn restore_from_handles_layout_mismatch() {
        let mut mem = DeviceMemory::new();
        mem.alloc("x", 2);
        let mut template = DeviceMemory::new();
        let a = template.alloc_init("a", &[3.0]);
        template.alloc("b", 2);
        mem.restore_from(&template);
        assert_eq!(mem.buffers.len(), 2);
        assert_eq!(mem.to_vec(a).unwrap(), vec![3.0]);
    }

    #[test]
    fn flip_bits_xors_pattern() {
        let mut mem = DeviceMemory::new();
        let b = mem.alloc_init("b", &[1.0]);
        // Flip the sign bit.
        mem.flip_bits(b, 0, 1 << 63).unwrap();
        assert_eq!(mem.read(b, 0).unwrap(), -1.0);
        // Flipping again restores.
        mem.flip_bits(b, 0, 1 << 63).unwrap();
        assert_eq!(mem.read(b, 0).unwrap(), 1.0);
    }

    proptest! {
        #[test]
        fn flip_is_involutive(v in -1e300f64..1e300, bit in 0u32..64) {
            let mut mem = DeviceMemory::new();
            let b = mem.alloc_init("b", &[v]);
            let mask = 1u64 << bit;
            mem.flip_bits(b, 0, mask).unwrap();
            mem.flip_bits(b, 0, mask).unwrap();
            let back = mem.read(b, 0).unwrap();
            prop_assert_eq!(back.to_bits(), v.to_bits());
        }

        #[test]
        fn writes_are_isolated(
            len in 1usize..64, idx in 0usize..64, v in -1e9f64..1e9) {
            prop_assume!(idx < len);
            let mut mem = DeviceMemory::new();
            let b = mem.alloc("b", len);
            mem.write(b, idx, v).unwrap();
            for i in 0..len {
                let expected = if i == idx { v } else { 0.0 };
                prop_assert_eq!(mem.read(b, i).unwrap(), expected);
            }
        }
    }
}

//! Quantized, possibly memory-mapped storage arenas for [`FeatureStore`].
//!
//! The §5.2.3 cost breakdown says the precomputed feature footprint — not the
//! MLP — dominates serving memory, so the store's flat arenas are pluggable:
//!
//! - [`ArenaEncoding::F32`] keeps every value bitwise as computed (encoded
//!   distributions in `f32`, raw window series in `f64`) — the lossless
//!   default, byte-identical to the pre-quantization format.
//! - [`ArenaEncoding::F16`] stores encoded values as IEEE 754 half floats and
//!   raw series as `f32` — a 2× footprint cut with ~2⁻¹¹ relative error.
//! - [`ArenaEncoding::Int8`] stores each *block* (one encoded distribution or
//!   one raw window series) as affine-quantized bytes with a per-block
//!   `(scale, offset)` pair — a ~4× cut with ≤ half-step-per-block error.
//!
//! Arenas read through [`EncArena::write_entry`] / [`RawArena::series`],
//! dequantizing on assembly with **no heap allocation** on the encoded path.
//! Payloads live in a [`Buf`]: either owned 8-byte-aligned memory or a view
//! into a shared [`MappedStore`] region, which is how `StoreArtifact::map`
//! loads artifacts zero-copy — the arenas point straight into the mapping,
//! and dropping the last store evicted from the serving cache unmaps it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// How a store's arenas are encoded in memory and on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArenaEncoding {
    /// Lossless: `f32` encoded values, `f64` raw series (the default).
    F32,
    /// IEEE 754 half-precision encoded values, `f32` raw series.
    F16,
    /// Per-block affine `u8` quantization for both encoded and raw arenas.
    Int8,
}

impl ArenaEncoding {
    /// All encodings, in increasing compression order.
    pub const ALL: [ArenaEncoding; 3] =
        [ArenaEncoding::F32, ArenaEncoding::F16, ArenaEncoding::Int8];

    /// Stable on-disk tag.
    pub fn tag(self) -> u64 {
        match self {
            ArenaEncoding::F32 => 0,
            ArenaEncoding::F16 => 1,
            ArenaEncoding::Int8 => 2,
        }
    }

    /// Inverse of [`ArenaEncoding::tag`].
    pub fn from_tag(tag: u64) -> Option<ArenaEncoding> {
        match tag {
            0 => Some(ArenaEncoding::F32),
            1 => Some(ArenaEncoding::F16),
            2 => Some(ArenaEncoding::Int8),
            _ => None,
        }
    }

    /// CLI / report name (`"f32"`, `"f16"`, `"int8"`).
    pub fn name(self) -> &'static str {
        match self {
            ArenaEncoding::F32 => "f32",
            ArenaEncoding::F16 => "f16",
            ArenaEncoding::Int8 => "int8",
        }
    }

    /// Parses a CLI / config name.
    pub fn parse(s: &str) -> Option<ArenaEncoding> {
        match s {
            "f32" => Some(ArenaEncoding::F32),
            "f16" => Some(ArenaEncoding::F16),
            "int8" => Some(ArenaEncoding::Int8),
            _ => None,
        }
    }

    /// Bytes per element in an *encoded* (`f32`-reference) arena.
    fn enc_elem_bytes(self) -> usize {
        match self {
            ArenaEncoding::F32 => 4,
            ArenaEncoding::F16 => 2,
            ArenaEncoding::Int8 => 1,
        }
    }

    /// Bytes per element in a *raw* (`f64`-reference) arena.
    fn raw_elem_bytes(self) -> usize {
        match self {
            ArenaEncoding::F32 => 8,
            ArenaEncoding::F16 => 4,
            ArenaEncoding::Int8 => 1,
        }
    }

    /// Bytes of per-entry dequantization parameters (`[scale, offset]` as
    /// `f32` for [`ArenaEncoding::Int8`]; none otherwise).
    fn params_entry_bytes(self) -> usize {
        match self {
            ArenaEncoding::Int8 => 8,
            _ => 0,
        }
    }
}

impl std::fmt::Display for ArenaEncoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------------
// IEEE 754 binary16 conversion (no external `half` dependency).
// ---------------------------------------------------------------------------

/// Converts `x` to half-precision bits, round-to-nearest-even. Values beyond
/// the f16 range **saturate to ±65504** instead of overflowing to infinity —
/// a quantized feature must stay finite for the MLP.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        // NaN stays NaN (quiet, payload truncated); infinity saturates.
        if man != 0 {
            return sign | 0x7e00;
        }
        return sign | 0x7bff;
    }
    let unbiased = exp - 127;
    if unbiased >= 16 {
        return sign | 0x7bff; // saturate to max finite
    }
    if unbiased < -14 {
        // Subnormal half (or zero): value = (man|implicit) × 2^(unbiased-23).
        if unbiased < -25 {
            return sign; // underflows to zero even after rounding
        }
        let full = man | 0x0080_0000;
        let shift = (-14 - unbiased + 13) as u32; // 14..=24
        let q = full >> shift;
        let rem = full & ((1u32 << shift) - 1);
        let half = 1u32 << (shift - 1);
        let rounded = if rem > half || (rem == half && (q & 1) == 1) {
            q + 1
        } else {
            q
        };
        return sign | rounded as u16; // may carry into the smallest normal
    }
    let mut q = (((unbiased + 15) as u32) << 10) | (man >> 13);
    let rem = man & 0x1fff;
    if rem > 0x1000 || (rem == 0x1000 && (q & 1) == 1) {
        q += 1; // mantissa carry propagates into the exponent correctly
    }
    if (q & 0x7fff) >= 0x7c00 {
        return sign | 0x7bff; // rounded up past the largest finite half
    }
    sign | q as u16
}

/// Converts half-precision bits back to `f32` (exact: every finite half is
/// representable).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let exp = (h >> 10) & 0x1f;
    let man = u32::from(h & 0x03ff);
    let bits = match exp {
        0 => {
            if man == 0 {
                sign
            } else {
                // Subnormal: normalize into an f32 exponent.
                let mut m = man;
                let mut e = -14i32;
                while m & 0x0400 == 0 {
                    m <<= 1;
                    e -= 1;
                }
                sign | (((e + 127) as u32) << 23) | ((m & 0x03ff) << 13)
            }
        }
        0x1f => sign | 0x7f80_0000 | (man << 13), // inf / NaN
        _ => sign | ((u32::from(exp) + 127 - 15) << 23) | (man << 13),
    };
    f32::from_bits(bits)
}

// ---------------------------------------------------------------------------
// Backing memory: owned aligned bytes or a shared mapped region.
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod mmap_sys {
    //! Minimal `mmap(2)`/`mincore(2)` FFI against the libc the Rust runtime
    //! already links — no external crate. Read-only private mappings.
    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    /// `_SC_PAGESIZE` (Linux value; Darwin uses 29).
    #[cfg(not(target_os = "macos"))]
    pub const SC_PAGESIZE: i32 = 30;
    #[cfg(target_os = "macos")]
    pub const SC_PAGESIZE: i32 = 29;

    extern "C" {
        pub fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        pub fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
        pub fn mincore(addr: *mut core::ffi::c_void, len: usize, vec: *mut u8) -> i32;
        pub fn sysconf(name: i32) -> i64;
    }

    /// The system page size (4096 if `sysconf` declines to answer).
    pub fn page_size() -> usize {
        // SAFETY: sysconf is async-signal-safe and takes no pointers.
        let p = unsafe { sysconf(SC_PAGESIZE) };
        if p > 0 {
            p as usize
        } else {
            4096
        }
    }
}

static LIVE_MMAPS: AtomicUsize = AtomicUsize::new(0);

enum Backing {
    /// 8-byte-aligned owned memory (`Vec<u64>` words reinterpreted as bytes).
    Owned(#[allow(dead_code)] Vec<u64>),
    /// A live `mmap(2)` of an artifact file.
    #[cfg(unix)]
    Mmap,
}

/// A shared, immutable byte region backing one loaded store: either an
/// `mmap`'d artifact file (zero-copy, page-fault-driven residency) or an
/// owned aligned buffer (the portability / test fallback). Arena [`Buf`]
/// views hold an `Arc` to the region, so the mapping lives exactly as long
/// as some store (or cache entry) still references it and is released by
/// `munmap` when the last reference drops — eviction unmaps.
pub struct MappedStore {
    ptr: *const u8,
    len: usize,
    backing: Backing,
}

// SAFETY: the region is immutable after construction (PROT_READ mapping or a
// never-mutated owned buffer), so shared references across threads are safe.
unsafe impl Send for MappedStore {}
unsafe impl Sync for MappedStore {}

impl MappedStore {
    /// Copies `bytes` (once) into an owned 8-byte-aligned region.
    pub fn from_bytes(bytes: &[u8]) -> Arc<MappedStore> {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        // Vec<u64> storage is 8-aligned; fill it byte-wise.
        let dst =
            unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), bytes.len()) };
        dst.copy_from_slice(bytes);
        let ptr = words.as_ptr().cast::<u8>();
        Arc::new(MappedStore {
            ptr,
            len: bytes.len(),
            backing: Backing::Owned(words),
        })
    }

    /// Maps `path` read-only. On unix this is a true `mmap` (no arena bytes
    /// are copied through the heap); elsewhere it falls back to reading the
    /// file into an owned aligned region.
    pub fn open(path: &std::path::Path) -> std::io::Result<Arc<MappedStore>> {
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len() as usize;
            if len == 0 {
                return Ok(Self::from_bytes(&[]));
            }
            let ptr = unsafe {
                mmap_sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    mmap_sys::PROT_READ,
                    mmap_sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(std::io::Error::last_os_error());
            }
            LIVE_MMAPS.fetch_add(1, Ordering::SeqCst);
            Ok(Arc::new(MappedStore {
                ptr: ptr.cast::<u8>().cast_const(),
                len,
                backing: Backing::Mmap,
            }))
        }
        #[cfg(not(unix))]
        {
            Ok(Self::from_bytes(&std::fs::read(path)?))
        }
    }

    /// The whole region.
    pub fn bytes(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: ptr/len describe either the live mapping or the owned
        // buffer, both valid for the region's lifetime.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Whether this region is a live `mmap` (false for the owned fallback).
    pub fn is_mmap(&self) -> bool {
        match self.backing {
            Backing::Owned(_) => false,
            #[cfg(unix)]
            Backing::Mmap => true,
        }
    }

    /// Number of live `mmap`-backed regions in the process — lets tests (and
    /// operators) assert that evicting mapped stores actually releases their
    /// mappings.
    pub fn live_mmap_count() -> usize {
        LIVE_MMAPS.load(Ordering::SeqCst)
    }

    /// Estimated bytes of this region actually resident in memory.
    ///
    /// Owned regions are fully resident by construction. For live mappings
    /// this asks `mincore(2)` which pages are in core and charges whole
    /// pages, so a freshly mapped artifact whose arenas have never been
    /// touched (or whose file pages were dropped from the page cache) costs
    /// far less than its virtual payload. Falls back to the full length if
    /// the probe fails — over-charging is the safe direction for a cache
    /// admission estimate.
    pub fn resident_bytes(&self) -> usize {
        match self.backing {
            Backing::Owned(_) => self.len,
            #[cfg(unix)]
            Backing::Mmap => {
                if self.len == 0 {
                    return 0;
                }
                let page = mmap_sys::page_size();
                let mut vec = vec![0u8; self.len.div_ceil(page)];
                // SAFETY: ptr/len describe the live page-aligned mapping and
                // vec holds one byte per page of it.
                let rc = unsafe {
                    mmap_sys::mincore(self.ptr.cast_mut().cast(), self.len, vec.as_mut_ptr())
                };
                if rc != 0 {
                    return self.len;
                }
                let resident = vec.iter().filter(|&&b| b & 1 != 0).count();
                (resident * page).min(self.len)
            }
        }
    }
}

impl Drop for MappedStore {
    fn drop(&mut self) {
        #[cfg(unix)]
        if matches!(self.backing, Backing::Mmap) {
            // SAFETY: ptr/len came from a successful mmap and are unmapped
            // exactly once, here.
            unsafe {
                mmap_sys::munmap(self.ptr.cast_mut().cast(), self.len);
            }
            LIVE_MMAPS.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

impl std::fmt::Debug for MappedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedStore")
            .field("len", &self.len)
            .field("mmap", &self.is_mmap())
            .finish()
    }
}

/// Payload storage for one arena: owned aligned bytes or a view into a
/// shared [`MappedStore`].
#[derive(Clone)]
pub(crate) enum Buf {
    Owned(Arc<MappedStore>),
    View {
        region: Arc<MappedStore>,
        off: usize,
        len: usize,
    },
}

impl Buf {
    /// Copies `bytes` once into an owned aligned region.
    pub(crate) fn from_slice(bytes: &[u8]) -> Buf {
        Buf::Owned(MappedStore::from_bytes(bytes))
    }

    pub(crate) fn view(region: &Arc<MappedStore>, off: usize, len: usize) -> Buf {
        Buf::View {
            region: Arc::clone(region),
            off,
            len,
        }
    }

    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            Buf::Owned(region) => region.bytes(),
            Buf::View { region, off, len } => &region.bytes()[*off..off + len],
        }
    }

    /// Whether the payload lives in a live `mmap`.
    pub(crate) fn is_mapped(&self) -> bool {
        match self {
            Buf::Owned(region) => region.is_mmap(),
            Buf::View { region, .. } => region.is_mmap(),
        }
    }

    /// The backing region (the whole artifact for mapped views).
    pub(crate) fn region(&self) -> &Arc<MappedStore> {
        match self {
            Buf::Owned(region) => region,
            Buf::View { region, .. } => region,
        }
    }
}

impl std::fmt::Debug for Buf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Buf[{} bytes]", self.bytes().len())
    }
}

#[inline]
fn f32_at(bytes: &[u8], i: usize) -> f32 {
    f32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().expect("4-byte chunk"))
}

#[inline]
fn f64_at(bytes: &[u8], i: usize) -> f64 {
    f64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8-byte chunk"))
}

/// Per-entry affine parameters for [`ArenaEncoding::Int8`].
#[inline]
fn int8_params(params: &[u8], entry: usize) -> (f32, f32) {
    (f32_at(params, entry * 2), f32_at(params, entry * 2 + 1))
}

/// Quantizes one block to affine `u8`: `x ≈ offset + scale × q`.
fn quantize_block_u8(block: &[f64], data: &mut Vec<u8>, params: &mut Vec<u8>) {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &x in block {
        if x.is_finite() {
            lo = lo.min(x);
            hi = hi.max(x);
        }
    }
    if !lo.is_finite() || !hi.is_finite() {
        (lo, hi) = (0.0, 0.0);
    }
    let scale = ((hi - lo) / 255.0) as f32;
    let offset = lo as f32;
    params.extend_from_slice(&scale.to_le_bytes());
    params.extend_from_slice(&offset.to_le_bytes());
    for &x in block {
        let q = if scale > 0.0 {
            (((x - lo) / f64::from(scale)).round()).clamp(0.0, 255.0) as u8
        } else {
            0
        };
        data.push(q);
    }
}

// ---------------------------------------------------------------------------
// Encoded arenas (f32 reference semantics).
// ---------------------------------------------------------------------------

/// One encoded-feature arena: `entries` blocks of `stride` `f32`-valued
/// elements, stored under an [`ArenaEncoding`]. Blocks are the quantization
/// granularity: each Int8 block carries its own `(scale, offset)`.
#[derive(Debug, Clone)]
pub struct EncArena {
    enc: ArenaEncoding,
    stride: usize,
    entries: usize,
    data: Buf,
    params: Buf,
}

impl EncArena {
    /// Builds an arena from reference `f32` values (`values.len()` must be a
    /// multiple of `stride`). [`ArenaEncoding::F32`] preserves every bit.
    pub fn from_f32(values: &[f32], stride: usize, enc: ArenaEncoding) -> EncArena {
        assert!(stride > 0, "arena stride must be positive");
        assert!(
            values.len().is_multiple_of(stride),
            "arena length {} is not a multiple of its stride {stride}",
            values.len()
        );
        let entries = values.len() / stride;
        let mut data = Vec::with_capacity(values.len() * enc.enc_elem_bytes());
        let mut params = Vec::with_capacity(entries * enc.params_entry_bytes());
        match enc {
            ArenaEncoding::F32 => {
                for &x in values {
                    data.extend_from_slice(&x.to_le_bytes());
                }
            }
            ArenaEncoding::F16 => {
                for &x in values {
                    data.extend_from_slice(&f32_to_f16_bits(x).to_le_bytes());
                }
            }
            ArenaEncoding::Int8 => {
                let mut block = vec![0f64; stride];
                for chunk in values.chunks_exact(stride) {
                    for (b, &x) in block.iter_mut().zip(chunk) {
                        *b = f64::from(x);
                    }
                    quantize_block_u8(&block, &mut data, &mut params);
                }
            }
        }
        EncArena {
            enc,
            stride,
            entries,
            data: Buf::from_slice(&data),
            params: Buf::from_slice(&params),
        }
    }

    pub(crate) fn from_views(
        enc: ArenaEncoding,
        stride: usize,
        entries: usize,
        data: Buf,
        params: Buf,
    ) -> std::io::Result<EncArena> {
        let want_data = entries
            .checked_mul(stride)
            .and_then(|n| n.checked_mul(enc.enc_elem_bytes()));
        let want_params = entries.checked_mul(enc.params_entry_bytes());
        if stride == 0
            || want_data != Some(data.bytes().len())
            || want_params != Some(params.bytes().len())
        {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "arena payload length is inconsistent with its header",
            ));
        }
        Ok(EncArena {
            enc,
            stride,
            entries,
            data,
            params,
        })
    }

    /// Elements per block.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of blocks.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// The arena's encoding.
    pub fn encoding(&self) -> ArenaEncoding {
        self.enc
    }

    /// Dequantizes block `idx` into `out` (`out.len() == stride`) with no
    /// heap allocation — the feature-assembly hot path.
    #[inline]
    pub fn write_entry(&self, idx: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.stride, "entry buffer must match the stride");
        assert!(idx < self.entries, "arena entry out of range");
        let data = self.data.bytes();
        match self.enc {
            ArenaEncoding::F32 => {
                let bytes = &data[idx * self.stride * 4..(idx + 1) * self.stride * 4];
                #[cfg(target_endian = "little")]
                if (bytes.as_ptr() as usize).is_multiple_of(4) {
                    // SAFETY: length is stride × 4, the pointer is 4-aligned
                    // (payloads are 8-aligned in both the owned region and
                    // the padded artifact layout; the entry offset is a
                    // multiple of 4), every bit pattern is a valid f32, and
                    // the store is little-endian like the target — so the
                    // default-encoding hot path stays one memcpy per block.
                    let s = unsafe {
                        std::slice::from_raw_parts(bytes.as_ptr().cast::<f32>(), self.stride)
                    };
                    out.copy_from_slice(s);
                    return;
                }
                for (j, o) in out.iter_mut().enumerate() {
                    *o = f32_at(bytes, j);
                }
            }
            ArenaEncoding::F16 => {
                let base = idx * self.stride * 2;
                for (j, o) in out.iter_mut().enumerate() {
                    let at = base + j * 2;
                    *o = f16_bits_to_f32(u16::from_le_bytes(
                        data[at..at + 2].try_into().expect("2-byte chunk"),
                    ));
                }
            }
            ArenaEncoding::Int8 => {
                let (scale, offset) = int8_params(self.params.bytes(), idx);
                let base = idx * self.stride;
                for (j, o) in out.iter_mut().enumerate() {
                    *o = offset + scale * f32::from(data[base + j]);
                }
            }
        }
    }

    /// Dequantizes the whole arena (reference values for re-encoding and
    /// error measurement).
    pub fn to_f32_vec(&self) -> Vec<f32> {
        let mut out = vec![0f32; self.entries * self.stride];
        for idx in 0..self.entries {
            self.write_entry(idx, &mut out[idx * self.stride..(idx + 1) * self.stride]);
        }
        out
    }

    /// Quantized in-memory footprint: payload plus dequantization params.
    pub fn payload_bytes(&self) -> usize {
        self.data.bytes().len() + self.params.bytes().len()
    }

    /// What the same arena would occupy losslessly (`f32`).
    pub fn f32_bytes(&self) -> usize {
        self.entries * self.stride * 4
    }

    pub(crate) fn is_mapped(&self) -> bool {
        self.data.is_mapped()
    }

    pub(crate) fn raw_parts(&self) -> (&Buf, &Buf) {
        (&self.data, &self.params)
    }
}

// ---------------------------------------------------------------------------
// Raw window-series arenas (f64 reference semantics).
// ---------------------------------------------------------------------------

/// One raw-series arena: `entries` per-window series of `stride` `f64`
/// values. [`ArenaEncoding::F32`] keeps them as bit-exact `f64`; `F16`
/// stores `f32`; `Int8` stores per-series affine bytes.
#[derive(Debug, Clone)]
pub struct RawArena {
    enc: ArenaEncoding,
    stride: usize,
    entries: usize,
    data: Buf,
    params: Buf,
}

impl RawArena {
    /// Builds an arena from reference `f64` series.
    pub fn from_f64(values: &[f64], stride: usize, enc: ArenaEncoding) -> RawArena {
        assert!(stride > 0, "arena stride must be positive");
        assert!(
            values.len().is_multiple_of(stride),
            "arena length {} is not a multiple of its stride {stride}",
            values.len()
        );
        let entries = values.len() / stride;
        let mut data = Vec::with_capacity(values.len() * enc.raw_elem_bytes());
        let mut params = Vec::with_capacity(entries * enc.params_entry_bytes());
        match enc {
            ArenaEncoding::F32 => {
                for &x in values {
                    data.extend_from_slice(&x.to_le_bytes());
                }
            }
            ArenaEncoding::F16 => {
                for &x in values {
                    data.extend_from_slice(&(x as f32).to_le_bytes());
                }
            }
            ArenaEncoding::Int8 => {
                for chunk in values.chunks_exact(stride) {
                    quantize_block_u8(chunk, &mut data, &mut params);
                }
            }
        }
        RawArena {
            enc,
            stride,
            entries,
            data: Buf::from_slice(&data),
            params: Buf::from_slice(&params),
        }
    }

    pub(crate) fn from_views(
        enc: ArenaEncoding,
        stride: usize,
        entries: usize,
        data: Buf,
        params: Buf,
    ) -> std::io::Result<RawArena> {
        let want_data = entries
            .checked_mul(stride)
            .and_then(|n| n.checked_mul(enc.raw_elem_bytes()));
        let want_params = entries.checked_mul(enc.params_entry_bytes());
        if stride == 0
            || want_data != Some(data.bytes().len())
            || want_params != Some(params.bytes().len())
        {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "raw arena payload length is inconsistent with its header",
            ));
        }
        Ok(RawArena {
            enc,
            stride,
            entries,
            data,
            params,
        })
    }

    /// Elements per series.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of series.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Series `idx` as `f64` values. Lossless (`F32`) arenas on little-endian
    /// targets borrow straight from the payload (zero-copy even when mapped);
    /// quantized arenas decode into an owned buffer.
    pub fn series(&self, idx: usize) -> std::borrow::Cow<'_, [f64]> {
        assert!(idx < self.entries, "raw series out of range");
        let data = self.data.bytes();
        match self.enc {
            ArenaEncoding::F32 => {
                let bytes = &data[idx * self.stride * 8..(idx + 1) * self.stride * 8];
                #[cfg(target_endian = "little")]
                {
                    let aligned = (bytes.as_ptr() as usize).is_multiple_of(8);
                    debug_assert!(aligned, "arena payload aligned");
                    if aligned {
                        // SAFETY: length is a multiple of 8, the pointer is
                        // 8-aligned (arena payloads are 8-aligned in both the
                        // owned region and the padded artifact layout), every
                        // bit pattern is a valid f64, and the store is
                        // little-endian like the target.
                        let s = unsafe {
                            std::slice::from_raw_parts(bytes.as_ptr().cast::<f64>(), self.stride)
                        };
                        return std::borrow::Cow::Borrowed(s);
                    }
                }
                std::borrow::Cow::Owned((0..self.stride).map(|j| f64_at(bytes, j)).collect())
            }
            ArenaEncoding::F16 => {
                let base = idx * self.stride;
                std::borrow::Cow::Owned(
                    (0..self.stride)
                        .map(|j| f64::from(f32_at(data, base + j)))
                        .collect(),
                )
            }
            ArenaEncoding::Int8 => {
                let (scale, offset) = int8_params(self.params.bytes(), idx);
                let base = idx * self.stride;
                std::borrow::Cow::Owned(
                    (0..self.stride)
                        .map(|j| f64::from(offset) + f64::from(scale) * f64::from(data[base + j]))
                        .collect(),
                )
            }
        }
    }

    /// Dequantizes the whole arena (reference values for re-encoding).
    pub fn to_f64_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.entries * self.stride);
        for idx in 0..self.entries {
            out.extend_from_slice(&self.series(idx));
        }
        out
    }

    /// Quantized in-memory footprint: payload plus dequantization params.
    pub fn payload_bytes(&self) -> usize {
        self.data.bytes().len() + self.params.bytes().len()
    }

    /// What the same arena would occupy losslessly (`f64`).
    pub fn f64_bytes(&self) -> usize {
        self.entries * self.stride * 8
    }

    pub(crate) fn raw_parts(&self) -> (&Buf, &Buf) {
        (&self.data, &self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_roundtrip_is_exact_for_every_half() {
        // Every finite half value must survive f16 → f32 → f16 bit-exactly.
        for h in 0..=u16::MAX {
            let exp = (h >> 10) & 0x1f;
            let man = h & 0x3ff;
            if exp == 0x1f {
                continue; // inf/NaN saturate by design
            }
            let x = f16_bits_to_f32(h);
            let back = f32_to_f16_bits(x);
            assert_eq!(back, h, "half {h:#06x} ({x}) did not roundtrip");
            let _ = man;
        }
    }

    #[test]
    fn f16_saturates_instead_of_overflowing() {
        for x in [1e9f32, 65520.0, f32::INFINITY] {
            let h = f32_to_f16_bits(x);
            assert_eq!(h, 0x7bff, "{x} must saturate to max finite");
            assert!((f16_bits_to_f32(h) - 65504.0).abs() < 1.0);
        }
        assert_eq!(f32_to_f16_bits(-1e9), 0xfbff);
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn f16_relative_error_is_bounded() {
        let mut x = 1.5e-3f32;
        while x < 6e4 {
            let dq = f16_bits_to_f32(f32_to_f16_bits(x));
            assert!(
                (dq - x).abs() <= x * 4.9e-4,
                "{x} → {dq}: rel err {}",
                (dq - x).abs() / x
            );
            x *= 1.37;
        }
    }

    #[test]
    fn f32_arena_is_bitwise_lossless() {
        let vals: Vec<f32> = (0..24).map(|i| (i as f32).sin() * 1e3).collect();
        let a = EncArena::from_f32(&vals, 8, ArenaEncoding::F32);
        assert_eq!(a.entries(), 3);
        let back = a.to_f32_vec();
        assert_eq!(
            vals.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            back.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(a.payload_bytes(), a.f32_bytes());
    }

    #[test]
    fn int8_error_is_within_half_a_step_per_block() {
        let vals: Vec<f32> = (0..64).map(|i| 100.0 + (i as f32) * 3.7).collect();
        let a = EncArena::from_f32(&vals, 16, ArenaEncoding::Int8);
        let back = a.to_f32_vec();
        for chunk in vals.chunks(16).zip(back.chunks(16)) {
            let (orig, deq) = chunk;
            let lo = orig.iter().copied().fold(f32::INFINITY, f32::min);
            let hi = orig.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let step = (hi - lo) / 255.0;
            for (o, d) in orig.iter().zip(deq) {
                assert!((o - d).abs() <= step * 0.501 + 1e-4, "{o} vs {d}");
            }
        }
        // Much smaller than f32 even at this tiny 16-element stride (the
        // fixed 8 params bytes per block amortize further at real strides).
        assert!(a.payload_bytes() * 2 < a.f32_bytes());
        assert_eq!(a.payload_bytes(), 64 + 4 * 8);
    }

    #[test]
    fn constant_blocks_quantize_exactly() {
        let vals = vec![7.25f32; 32];
        for enc in [ArenaEncoding::Int8, ArenaEncoding::F16] {
            let a = EncArena::from_f32(&vals, 8, enc);
            assert!(a.to_f32_vec().iter().all(|&x| x == 7.25), "{enc}");
        }
    }

    #[test]
    fn raw_arena_series_roundtrip() {
        let vals: Vec<f64> = (0..40).map(|i| f64::from(i) * 0.61 + 2.0).collect();
        let lossless = RawArena::from_f64(&vals, 10, ArenaEncoding::F32);
        assert_eq!(&*lossless.series(1), &vals[10..20]);
        let q = RawArena::from_f64(&vals, 10, ArenaEncoding::Int8);
        let back = q.to_f64_vec();
        for (o, d) in vals.iter().zip(&back) {
            assert!((o - d).abs() < 0.05, "{o} vs {d}");
        }
        assert!(q.payload_bytes() * 3 < q.f64_bytes());
    }

    #[test]
    fn owned_region_is_aligned_and_not_mmap() {
        let region = MappedStore::from_bytes(&(0u8..64).collect::<Vec<u8>>());
        assert_eq!(region.bytes().len(), 64);
        assert_eq!(region.bytes().as_ptr() as usize % 8, 0);
        assert!(!region.is_mmap());
    }

    #[cfg(unix)]
    #[test]
    fn mmap_open_reads_the_file_and_unmaps_on_drop() {
        let path =
            std::env::temp_dir().join(format!("concorde_mmap_unit_{}.bin", std::process::id()));
        let payload: Vec<u8> = (0..4096u32).flat_map(|i| i.to_le_bytes()).collect();
        std::fs::write(&path, &payload).unwrap();
        let before = MappedStore::live_mmap_count();
        let region = MappedStore::open(&path).unwrap();
        assert!(region.is_mmap());
        assert_eq!(region.bytes(), &payload[..]);
        assert_eq!(MappedStore::live_mmap_count(), before + 1);
        drop(region);
        assert_eq!(MappedStore::live_mmap_count(), before);
        std::fs::remove_file(&path).ok();
    }
}

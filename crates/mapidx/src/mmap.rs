//! Minimal read-only `mmap(2)` binding, declared locally in the house
//! style (`freephish-serve` does the same for `poll(2)`): no libc crate,
//! just the two symbols this crate needs, Linux-only like the rest of the
//! serving stack.

use std::ffi::{c_int, c_void};
use std::fs::File;
use std::io;
use std::os::unix::io::AsRawFd;

const PROT_READ: c_int = 0x1;
const MAP_PRIVATE: c_int = 0x02;
/// Prefault the mapping so a following full-file pass (the verified
/// open's checksum) reads at memory bandwidth instead of taking one minor
/// fault per page.
const MAP_POPULATE: c_int = 0x8000;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        length: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, length: usize) -> c_int;
}

/// A read-only, file-backed memory mapping, unmapped on drop.
pub struct Mmap {
    ptr: *mut c_void,
    len: usize,
}

// SAFETY: `ptr` is the start of a PROT_READ mapping this value owns alone:
// no other value holds it, nothing writes through it (the file format
// contract is write-once + atomic rename), and only `Drop` unmaps it, once.
// `len` is a plain integer fixed at construction. Moving the owner to
// another thread moves nothing thread-bound, so `Send` holds.
unsafe impl Send for Mmap {}
// SAFETY: shared access is `as_slice`/`len`, which only read: the bytes
// behind `ptr` never change while mapped and `len` never changes, so
// concurrent readers cannot race.
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Map the first `len` bytes of `file` read-only, faulting pages in
    /// lazily — this is the serve path's restart-in-milliseconds open,
    /// whose cost is independent of file size. `len` must be > 0 and no
    /// longer than the file.
    pub fn map_readonly(file: &File, len: usize) -> io::Result<Mmap> {
        Mmap::map_with_flags(file, len, MAP_PRIVATE)
    }

    /// Map read-only with `MAP_POPULATE`: the whole file is prefaulted up
    /// front, so a following sequential pass (the verified open's
    /// checksum) runs at memory bandwidth. Falls back to a lazy mapping
    /// on kernels without populate support.
    pub fn map_readonly_populated(file: &File, len: usize) -> io::Result<Mmap> {
        match Mmap::map_with_flags(file, len, MAP_PRIVATE | MAP_POPULATE) {
            Ok(map) => Ok(map),
            // Kernels without MAP_POPULATE support reject the flag.
            Err(_) => Mmap::map_with_flags(file, len, MAP_PRIVATE),
        }
    }

    fn map_with_flags(file: &File, len: usize, flags: c_int) -> io::Result<Mmap> {
        if len == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cannot map zero bytes",
            ));
        }
        let fd = file.as_raw_fd();
        // SAFETY: fd is a valid open file descriptor for the lifetime of
        // this call; a MAP_FAILED return is checked below.
        let ptr = unsafe { mmap(std::ptr::null_mut(), len, PROT_READ, flags, fd, 0) };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap { ptr, len })
    }

    /// The mapped bytes.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: ptr/len describe a live PROT_READ mapping until drop.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is mapped (never constructed; kept for API shape).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        // SAFETY: ptr/len came from a successful mmap and are unmapped
        // exactly once.
        unsafe {
            munmap(self.ptr, self.len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn maps_a_file_and_reads_it_back() {
        let dir = freephish_store::testutil::TempDir::new("mmap-basic");
        let path = dir.path().join("blob");
        let payload: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&payload)
            .unwrap();
        let file = File::open(&path).unwrap();
        let map = Mmap::map_readonly(&file, payload.len()).unwrap();
        assert_eq!(map.as_slice(), &payload[..]);
        assert_eq!(map.len(), payload.len());
    }

    #[test]
    fn zero_length_maps_are_refused() {
        let dir = freephish_store::testutil::TempDir::new("mmap-zero");
        let path = dir.path().join("empty");
        std::fs::File::create(&path).unwrap();
        let file = File::open(&path).unwrap();
        assert!(Mmap::map_readonly(&file, 0).is_err());
        assert!(Mmap::map_readonly_populated(&file, 0).is_err());
    }

    #[test]
    fn populated_maps_read_identically() {
        let dir = freephish_store::testutil::TempDir::new("mmap-populate");
        let path = dir.path().join("blob");
        let payload = vec![0xABu8; 64 * 1024];
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&payload)
            .unwrap();
        let file = File::open(&path).unwrap();
        let map = Mmap::map_readonly_populated(&file, payload.len()).unwrap();
        assert_eq!(map.as_slice(), &payload[..]);
    }
}

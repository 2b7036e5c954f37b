//! [`FrameArena`]: in-memory buffer frames with dirty bits, owned by one
//! caller at a time.
//!
//! The arena holds `frames × page_size` bytes in one allocation, plus per
//! frame the resident page and a dirty bit, a `page → frame` directory, a
//! free list and a count of dirty frames. It has no synchronization of its
//! own: reads take `&self`, everything that changes a frame takes
//! `&mut self`, and [`PageStore`](crate::PageStore) keeps the arena behind
//! one mutex, so the borrow checker is the whole concurrency protocol.
//!
//! [`FrameArena::evict`] hands back an [`EvictGuard`] that still borrows the
//! arena and dereferences to the departing bytes, so a dirty victim is
//! written back straight from its frame; dropping the guard returns the
//! frame to the free list.

use std::ops::Deref;

use cache_sim::{FastHashMap, PageId};

#[derive(Debug, Clone, Copy, Default)]
struct Frame {
    /// The resident page, or `None` while the frame is free.
    page: Option<PageId>,
    dirty: bool,
}

/// A fixed-capacity arena of page-sized buffer frames.
#[derive(Debug)]
pub(crate) struct FrameArena {
    page_size: usize,
    buf: Vec<u8>,
    frames: Vec<Frame>,
    directory: FastHashMap<PageId, u32>,
    free: Vec<u32>,
    dirty_count: usize,
}

impl FrameArena {
    /// An arena of `frames` frames of `page_size` bytes each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub(crate) fn new(frames: usize, page_size: usize) -> Self {
        assert!(frames > 0, "at least one frame is required");
        assert!(page_size > 0, "page size must be positive");
        assert!(u32::try_from(frames).is_ok(), "frame count exceeds u32");
        FrameArena {
            page_size,
            buf: vec![0; frames * page_size],
            frames: vec![Frame::default(); frames],
            directory: FastHashMap::default(),
            // Popped from the back; reversed so frames are first handed out
            // in index order (deterministic, cache-friendly).
            free: (0..frames as u32).rev().collect(),
            dirty_count: 0,
        }
    }

    /// Number of resident pages.
    pub(crate) fn len(&self) -> usize {
        self.directory.len()
    }

    /// Number of resident dirty frames.
    pub(crate) fn dirty_len(&self) -> usize {
        self.dirty_count
    }

    /// Whether `page` is resident.
    pub(crate) fn contains(&self, page: PageId) -> bool {
        self.directory.contains_key(&page)
    }

    /// Where `frame`'s bytes sit in `buf`.
    fn range(&self, frame: u32) -> std::ops::Range<usize> {
        let start = frame as usize * self.page_size;
        start..start + self.page_size
    }

    fn set_dirty(&mut self, frame: u32, dirty: bool) {
        let meta = &mut self.frames[frame as usize];
        if meta.dirty != dirty {
            meta.dirty = dirty;
            if dirty {
                self.dirty_count += 1;
            } else {
                self.dirty_count -= 1;
            }
        }
    }

    /// Installs `data` as a new resident frame for `page` with the given
    /// dirty bit. Returns `false` (and installs nothing) if every frame is
    /// occupied — the caller must evict first.
    ///
    /// # Panics
    ///
    /// Panics if `page` is already resident (overwrite through
    /// [`FrameArena::write`] instead) or `data` is not one page.
    pub(crate) fn install(&mut self, page: PageId, data: &[u8], dirty: bool) -> bool {
        assert_eq!(data.len(), self.page_size, "data must be one page");
        assert!(!self.contains(page), "page {} is already resident", page.0);
        let Some(frame) = self.free.pop() else {
            return false;
        };
        let range = self.range(frame);
        self.buf[range].copy_from_slice(data);
        self.frames[frame as usize].page = Some(page);
        self.set_dirty(frame, dirty);
        self.directory.insert(page, frame);
        true
    }

    /// `page`'s resident bytes, or `None` if the page is not resident.
    pub(crate) fn read(&self, page: PageId) -> Option<&[u8]> {
        let &frame = self.directory.get(&page)?;
        Some(&self.buf[self.range(frame)])
    }

    /// Marks `page`'s frame dirty and returns its bytes for overwriting, or
    /// `None` if the page is not resident.
    pub(crate) fn write(&mut self, page: PageId) -> Option<&mut [u8]> {
        let &frame = self.directory.get(&page)?;
        self.set_dirty(frame, true);
        let range = self.range(frame);
        Some(&mut self.buf[range])
    }

    /// Clears `page`'s dirty bit after a successful write-back. Returns
    /// `false` if the page is not resident.
    pub(crate) fn mark_clean(&mut self, page: PageId) -> bool {
        match self.directory.get(&page) {
            Some(&frame) => {
                self.set_dirty(frame, false);
                true
            }
            None => false,
        }
    }

    /// Appends up to `max` dirty resident pages to `out` in frame order
    /// (deterministic).
    pub(crate) fn dirty_pages(&self, max: usize, out: &mut Vec<PageId>) {
        out.extend(
            self.frames
                .iter()
                .filter(|frame| frame.dirty)
                .filter_map(|frame| frame.page)
                .take(max),
        );
    }

    /// Removes `page` from the arena and returns an [`EvictGuard`] exposing
    /// the frame's bytes (and whether they were dirty) so the caller can
    /// write them back without a copy. Dropping the guard frees the frame.
    /// Returns `None` if the page is not resident.
    pub(crate) fn evict(&mut self, page: PageId) -> Option<EvictGuard<'_>> {
        let frame = self.directory.remove(&page)?;
        let dirty = self.frames[frame as usize].dirty;
        self.set_dirty(frame, false);
        Some(EvictGuard {
            arena: self,
            frame,
            dirty,
        })
    }
}

/// The result of [`FrameArena::evict`]: the evicted frame, no longer
/// reachable through the directory. Dereferences to the departing bytes so
/// a dirty victim can be written back straight from the frame; dropping the
/// guard returns the frame to the free list.
#[derive(Debug)]
pub(crate) struct EvictGuard<'a> {
    arena: &'a mut FrameArena,
    frame: u32,
    dirty: bool,
}

impl EvictGuard<'_> {
    /// Whether the frame held un-flushed writes when it was evicted.
    pub(crate) fn dirty(&self) -> bool {
        self.dirty
    }
}

impl Deref for EvictGuard<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.arena.buf[self.arena.range(self.frame)]
    }
}

impl Drop for EvictGuard<'_> {
    fn drop(&mut self) {
        self.arena.frames[self.frame as usize].page = None;
        self.arena.free.push(self.frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_read_write_evict_lifecycle() {
        let mut arena = FrameArena::new(2, 16);
        assert!(arena.install(PageId(1), &[1u8; 16], false));
        assert!(arena.install(PageId(2), &[2u8; 16], true));
        assert!(!arena.install(PageId(3), &[3u8; 16], false), "arena full");
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.dirty_len(), 1);
        let mut dirty = Vec::new();
        arena.dirty_pages(usize::MAX, &mut dirty);
        assert_eq!(dirty, vec![PageId(2)], "page 1 was installed clean");

        {
            let a = arena.read(PageId(1)).unwrap();
            let b = arena.read(PageId(1)).unwrap(); // shared reads coexist
            assert_eq!(&a[..4], &[1, 1, 1, 1]);
            assert_eq!(a[0], b[0]);
        }
        arena.write(PageId(1)).unwrap()[0] = 9;
        assert_eq!(arena.dirty_len(), 2, "a write dirties page 1");
        assert_eq!(arena.read(PageId(1)).unwrap()[0], 9);

        assert!(arena.mark_clean(PageId(1)));
        assert_eq!(arena.dirty_len(), 1);

        assert!(!arena.evict(PageId(1)).unwrap().dirty());
        {
            let guard = arena.evict(PageId(2)).unwrap();
            assert!(guard.dirty());
            assert_eq!(&guard[..], &[2u8; 16]);
        }
        assert!(arena.evict(PageId(2)).is_none());
        assert_eq!(arena.len(), 0);
        assert_eq!(arena.dirty_len(), 0);
        // Freed frames are reusable.
        assert!(arena.install(PageId(4), &[4u8; 16], false));
    }

    #[test]
    fn evict_guard_exposes_bytes_without_a_copy() {
        let mut arena = FrameArena::new(1, 8);
        assert!(arena.install(PageId(7), &[7u8; 8], true));
        let frame_bytes = arena.read(PageId(7)).unwrap().as_ptr();
        let guard = arena.evict(PageId(7)).unwrap();
        assert!(guard.dirty());
        assert_eq!(&guard[..], &[7u8; 8]);
        assert_eq!(guard.as_ptr(), frame_bytes, "no copy was made");
        // The guard borrows the arena, so the frame is recycled only once
        // it drops.
        drop(guard);
        assert!(!arena.contains(PageId(7)));
        assert_eq!(arena.dirty_len(), 0);
        assert!(arena.install(PageId(8), &[8u8; 8], false));
    }

    #[test]
    fn dirty_pages_lists_in_frame_order_up_to_max() {
        let mut arena = FrameArena::new(4, 8);
        for p in 1..=4u64 {
            assert!(arena.install(PageId(p), &[p as u8; 8], p % 2 == 0));
        }
        let mut dirty = Vec::new();
        arena.dirty_pages(10, &mut dirty);
        assert_eq!(dirty, vec![PageId(2), PageId(4)]);
        dirty.clear();
        arena.dirty_pages(1, &mut dirty);
        assert_eq!(dirty, vec![PageId(2)]);
        // A cleaned frame drops out of the listing.
        assert!(arena.mark_clean(PageId(2)));
        dirty.clear();
        arena.dirty_pages(10, &mut dirty);
        assert_eq!(dirty, vec![PageId(4)]);
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_install_panics() {
        let mut arena = FrameArena::new(2, 8);
        arena.install(PageId(1), &[0u8; 8], false);
        arena.install(PageId(1), &[0u8; 8], false);
    }
}

//! The synthetic relational database layout shared by the workload
//! generators.
//!
//! A [`DatabaseLayout`] maps logical database objects (tables and indexes) to
//! disjoint ranges of storage-server pages. Workload generators address pages
//! as `(object, row-or-slot index)`; the layout translates that into global
//! [`PageId`]s, supports table growth (TPC-C inserts), and can map a page
//! back to its owning object so that the buffer pool can attach the right
//! hints to write-backs.

use std::fmt;

use cache_sim::PageId;

/// Whether a database object is a base table or an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// A base table holding rows.
    Table,
    /// A secondary or primary index.
    Index,
    /// A temporary object (sort spill, intermediate result).
    Temporary,
}

impl ObjectKind {
    /// Numeric code used as the "object type" hint value.
    pub fn type_code(self) -> u32 {
        match self {
            ObjectKind::Table => 0,
            ObjectKind::Index => 1,
            ObjectKind::Temporary => 2,
        }
    }
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectKind::Table => write!(f, "table"),
            ObjectKind::Index => write!(f, "index"),
            ObjectKind::Temporary => write!(f, "temp"),
        }
    }
}

/// Handle to an object registered in a [`DatabaseLayout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjectId(pub usize);

/// Static description of one database object.
#[derive(Debug, Clone)]
pub struct ObjectSpec {
    /// Object name, e.g. `"STOCK"` or `"STOCK_PK"`.
    pub name: String,
    /// Table, index, or temporary.
    pub kind: ObjectKind,
    /// Identifier of the *group* of related objects (a table and its
    /// indexes share a group), used as the "object ID" hint value.
    pub group: u32,
    /// The buffer pool this object is assigned to ("pool ID" hint value).
    pub pool: u32,
    /// The client buffer priority of this object's pages
    /// ("buffer priority" hint value).
    pub priority: u32,
    /// Initial number of pages.
    pub initial_pages: u64,
}

#[derive(Debug, Clone)]
struct Extent {
    object: ObjectId,
    start: u64,
    pages: u64,
}

/// Maps logical objects to global page numbers.
///
/// Each growth step allocates a new extent, so a table that grows one page
/// at a time (TPC-C inserts) owns one extent per page. Both lookups are
/// binary searches: [`page`](Self::page) costs O(log e) for an object with
/// e extents, and [`object_of`](Self::object_of) O(log E) over all E
/// extents of the layout.
#[derive(Debug, Clone)]
pub struct DatabaseLayout {
    objects: Vec<ObjectSpec>,
    /// Allocated extents ordered by starting page.
    extents: Vec<Extent>,
    /// Per object, one `(first slot, first page)` pair per extent in
    /// allocation order; the first slots ascend from 0.
    object_extents: Vec<Vec<(u64, u64)>>,
    /// Current page count per object (initial + grown).
    object_pages: Vec<u64>,
    base_offset: u64,
    next_free: u64,
}

impl DatabaseLayout {
    /// Creates an empty layout whose pages start at `base_offset`. Distinct
    /// clients use distinct offsets so their page ids never collide.
    pub fn new(base_offset: u64) -> Self {
        DatabaseLayout {
            objects: Vec::new(),
            extents: Vec::new(),
            object_extents: Vec::new(),
            object_pages: Vec::new(),
            base_offset,
            next_free: base_offset,
        }
    }

    /// Registers an object and allocates its initial extent.
    ///
    /// # Panics
    ///
    /// Panics if `initial_pages` is zero.
    pub fn add_object(&mut self, spec: ObjectSpec) -> ObjectId {
        assert!(
            spec.initial_pages > 0,
            "objects must start with at least one page"
        );
        let id = ObjectId(self.objects.len());
        let extent = Extent {
            object: id,
            start: self.next_free,
            pages: spec.initial_pages,
        };
        self.next_free += spec.initial_pages;
        self.object_pages.push(spec.initial_pages);
        self.object_extents.push(vec![(0, extent.start)]);
        self.extents.push(extent);
        self.objects.push(spec);
        id
    }

    /// The static description of `object`.
    pub fn spec(&self, object: ObjectId) -> &ObjectSpec {
        &self.objects[object.0]
    }

    /// Number of registered objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Current number of pages owned by `object`.
    pub fn pages_of(&self, object: ObjectId) -> u64 {
        self.object_pages[object.0]
    }

    /// Translates `(object, slot)` into a global page id. `slot` is taken
    /// modulo the object's current page count, so callers can address rows
    /// with any non-negative index.
    pub fn page(&self, object: ObjectId, slot: u64) -> PageId {
        let offset = slot % self.object_pages[object.0];
        let extents = &self.object_extents[object.0];
        // The first extent starts at slot 0, so at least one pair precedes
        // every offset.
        let i = extents.partition_point(|&(first_slot, _)| first_slot <= offset) - 1;
        let (first_slot, first_page) = extents[i];
        PageId(first_page + offset - first_slot)
    }

    /// Appends `pages` new pages to `object` (database growth), returning the
    /// first newly allocated page id.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero.
    pub fn grow(&mut self, object: ObjectId, pages: u64) -> PageId {
        assert!(pages > 0, "growth must add at least one page");
        let extent = Extent {
            object,
            start: self.next_free,
            pages,
        };
        let first = PageId(self.next_free);
        self.next_free += pages;
        self.object_extents[object.0].push((self.object_pages[object.0], first.0));
        self.object_pages[object.0] += pages;
        self.extents.push(extent);
        first
    }

    /// Maps a page id back to the object that owns it, or `None` if the page
    /// does not belong to this layout.
    pub fn object_of(&self, page: PageId) -> Option<ObjectId> {
        if page.0 < self.base_offset || page.0 >= self.next_free {
            return None;
        }
        // Extents are allocated in increasing page order, so binary search on
        // the start page finds the candidate extent.
        let idx = match self.extents.binary_search_by(|e| e.start.cmp(&page.0)) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let ext = &self.extents[idx];
        if page.0 >= ext.start && page.0 < ext.start + ext.pages {
            Some(ext.object)
        } else {
            None
        }
    }

    /// Iterates over all registered objects.
    pub fn objects(&self) -> impl Iterator<Item = (ObjectId, &ObjectSpec)> {
        self.objects
            .iter()
            .enumerate()
            .map(|(i, spec)| (ObjectId(i), spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, kind: ObjectKind, group: u32, pages: u64) -> ObjectSpec {
        ObjectSpec {
            name: name.to_string(),
            kind,
            group,
            pool: 0,
            priority: 0,
            initial_pages: pages,
        }
    }

    #[test]
    fn pages_are_disjoint_across_objects() {
        let mut layout = DatabaseLayout::new(1000);
        let a = layout.add_object(spec("A", ObjectKind::Table, 0, 10));
        let b = layout.add_object(spec("B", ObjectKind::Table, 1, 5));
        assert_eq!(layout.page(a, 0), PageId(1000));
        assert_eq!(layout.page(a, 9), PageId(1009));
        assert_eq!(layout.page(b, 0), PageId(1010));
        assert_eq!(layout.pages_of(a), 10);
        // Slots wrap modulo the object's size.
        assert_eq!(layout.page(a, 10), layout.page(a, 0));
    }

    #[test]
    fn object_of_resolves_pages() {
        let mut layout = DatabaseLayout::new(0);
        let a = layout.add_object(spec("A", ObjectKind::Table, 0, 4));
        let b = layout.add_object(spec("B", ObjectKind::Index, 0, 4));
        assert_eq!(layout.object_of(PageId(0)), Some(a));
        assert_eq!(layout.object_of(PageId(3)), Some(a));
        assert_eq!(layout.object_of(PageId(4)), Some(b));
        assert_eq!(layout.object_of(PageId(7)), Some(b));
        assert_eq!(layout.object_of(PageId(8)), None);
    }

    #[test]
    fn growth_extends_an_object_without_moving_others() {
        let mut layout = DatabaseLayout::new(0);
        let a = layout.add_object(spec("A", ObjectKind::Table, 0, 2));
        let b = layout.add_object(spec("B", ObjectKind::Table, 1, 2));
        let first_new = layout.grow(a, 3);
        assert_eq!(first_new, PageId(4));
        assert_eq!(layout.pages_of(a), 5);
        // New pages resolve back to object A.
        assert_eq!(layout.object_of(PageId(5)), Some(a));
        assert_eq!(layout.object_of(PageId(3)), Some(b));
        // Addressing slot 2 of A now reaches the grown extent.
        assert_eq!(layout.page(a, 2), PageId(4));
        assert_eq!(layout.page(a, 4), PageId(6));
        // B's pages are untouched.
        assert_eq!(layout.page(b, 0), PageId(2));
    }

    /// The page an extent walk from the object's oldest extent finds.
    fn walk_extents(layout: &DatabaseLayout, object: ObjectId, slot: u64) -> PageId {
        let mut offset = slot % layout.pages_of(object);
        for ext in layout.extents.iter().filter(|e| e.object == object) {
            if offset < ext.pages {
                return PageId(ext.start + offset);
            }
            offset -= ext.pages;
        }
        unreachable!("slot {slot} not covered by the extents of {object:?}")
    }

    #[test]
    fn binary_search_matches_an_extent_walk_under_interleaved_growth() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut layout = DatabaseLayout::new(rng.gen_range(0u64..1_000));
            let objects: Vec<ObjectId> = (0..rng.gen_range(3usize..6))
                .map(|i| {
                    let pages = rng.gen_range(1u64..8);
                    layout.add_object(spec("O", ObjectKind::Table, i as u32, pages))
                })
                .collect();
            for _ in 0..60 {
                let object = objects[rng.gen_range(0..objects.len())];
                layout.grow(object, rng.gen_range(1u64..4));
                for &o in &objects {
                    for slot in 0..layout.pages_of(o) + 2 {
                        let page = layout.page(o, slot);
                        assert_eq!(page, walk_extents(&layout, o, slot), "seed {seed}");
                        assert_eq!(layout.object_of(page), Some(o), "seed {seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn base_offset_isolates_clients() {
        let mut c1 = DatabaseLayout::new(0);
        let mut c2 = DatabaseLayout::new(1_000_000);
        let a1 = c1.add_object(spec("A", ObjectKind::Table, 0, 100));
        let a2 = c2.add_object(spec("A", ObjectKind::Table, 0, 100));
        assert_ne!(c1.page(a1, 0), c2.page(a2, 0));
        assert_eq!(c1.object_of(c2.page(a2, 0)), None);
    }

    #[test]
    fn object_kind_codes_are_stable() {
        assert_eq!(ObjectKind::Table.type_code(), 0);
        assert_eq!(ObjectKind::Index.type_code(), 1);
        assert_eq!(ObjectKind::Temporary.type_code(), 2);
        assert_eq!(ObjectKind::Table.to_string(), "table");
    }

    #[test]
    fn objects_iterator_matches_specs() {
        let mut layout = DatabaseLayout::new(0);
        layout.add_object(spec("A", ObjectKind::Table, 0, 1));
        layout.add_object(spec("B", ObjectKind::Index, 0, 1));
        let names: Vec<&str> = layout.objects().map(|(_, s)| s.name.as_str()).collect();
        assert_eq!(names, vec!["A", "B"]);
        assert_eq!(layout.object_count(), 2);
    }
}

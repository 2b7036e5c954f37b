//! A TPC-H-like decision-support workload generator.
//!
//! Like the TPC-C model, this is a workload *model*, not a compliant
//! implementation: it reproduces the page-access structure of the 22 TPC-H
//! queries (large sequential scans over LINEITEM/ORDERS, selective
//! index-driven access to the dimension tables, sort/aggregation spills) and
//! the two refresh functions (inserts into ORDERS/LINEITEM and deletes),
//! executed as a continuous query stream beneath a DBMS buffer pool.
//!
//! The same generator serves both the DB2-style traces (`DB2_H*`, five
//! buffer pools, refresh functions included) and the MySQL-style traces
//! (`MY_H*`, single buffer pool, no refresh stream, one query skipped),
//! mirroring how the paper collected its workloads.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cache_sim::Trace;

use crate::bufferpool::BufferPoolConfig;
use crate::client::{DbmsSimulator, HintStyle, MYSQL_THREADS};
use crate::db::{DatabaseLayout, ObjectId, ObjectKind, ObjectSpec};
use crate::zipf::Zipf;

/// Which client application profile to emulate for the TPC-H run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpchVariant {
    /// DB2-style: 5 buffer pools, 22 queries plus the 2 refresh functions.
    Db2,
    /// MySQL-style: single buffer pool, 21 queries (Q18 skipped), no
    /// refresh functions — matching the paper's MySQL configuration.
    MySql,
}

/// Configuration of the TPC-H-like workload.
#[derive(Debug, Clone)]
pub struct TpchConfig {
    /// Approximate database size in pages.
    pub database_pages: u64,
    /// Total client buffer-pool capacity in pages.
    pub buffer_pages: usize,
    /// Number of query-stream iterations. One iteration runs every query in
    /// the set (plus refresh functions for the DB2 variant).
    pub query_streams: u64,
    /// Which client profile to emulate.
    pub variant: TpchVariant,
    /// Random seed.
    pub seed: u64,
    /// First page id to allocate.
    pub page_offset: u64,
    /// Client name recorded in the trace (e.g. `"DB2_H80"`).
    pub client_name: String,
}

impl TpchConfig {
    /// Creates a configuration with the given sizes and variant.
    pub fn new(
        database_pages: u64,
        buffer_pages: usize,
        query_streams: u64,
        variant: TpchVariant,
    ) -> Self {
        TpchConfig {
            database_pages,
            buffer_pages,
            query_streams,
            variant,
            seed: 42,
            page_offset: 0,
            client_name: match variant {
                TpchVariant::Db2 => "DB2_TPCH".to_string(),
                TpchVariant::MySql => "MY_TPCH".to_string(),
            },
        }
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the trace / client name.
    pub fn with_client_name(mut self, name: impl Into<String>) -> Self {
        self.client_name = name.into();
        self
    }

    /// Sets the first page id used by this client.
    pub fn with_page_offset(mut self, offset: u64) -> Self {
        self.page_offset = offset;
        self
    }
}

#[derive(Debug, Clone, Copy)]
struct Schema {
    lineitem: ObjectId,
    lineitem_idx: ObjectId,
    lineitem_idx2: ObjectId,
    orders: ObjectId,
    orders_idx: ObjectId,
    orders_idx2: ObjectId,
    partsupp: ObjectId,
    partsupp_idx: ObjectId,
    part: ObjectId,
    part_idx: ObjectId,
    customer: ObjectId,
    customer_idx: ObjectId,
    supplier: ObjectId,
    supplier_idx: ObjectId,
    nation: ObjectId,
    region: ObjectId,
    temp: ObjectId,
}

fn build_layout(
    database_pages: u64,
    page_offset: u64,
    variant: TpchVariant,
) -> (DatabaseLayout, Schema) {
    let mut layout = DatabaseLayout::new(page_offset);
    let pages = |fraction: f64| ((database_pages as f64 * fraction) as u64).max(1);
    // Pool assignment: the DB2 configuration spreads object groups across 5
    // pools; MySQL uses a single pool.
    let pool = |db2_pool: u32| match variant {
        TpchVariant::Db2 => db2_pool,
        TpchVariant::MySql => 0,
    };
    let add = |layout: &mut DatabaseLayout,
               name: &str,
               kind: ObjectKind,
               group: u32,
               p: u32,
               frac: f64| {
        layout.add_object(ObjectSpec {
            name: name.to_string(),
            kind,
            group,
            pool: p,
            // TPC-H runs give every page the same buffer priority (the
            // paper's DB2 TPC-H trace has priority-domain cardinality 1).
            priority: 0,
            initial_pages: pages(frac),
        })
    };
    let schema = Schema {
        lineitem: add(&mut layout, "LINEITEM", ObjectKind::Table, 0, pool(0), 0.46),
        lineitem_idx: add(
            &mut layout,
            "LINEITEM_PK",
            ObjectKind::Index,
            0,
            pool(1),
            0.03,
        ),
        lineitem_idx2: add(
            &mut layout,
            "LINEITEM_SUPPKEY",
            ObjectKind::Index,
            0,
            pool(1),
            0.02,
        ),
        orders: add(&mut layout, "ORDERS", ObjectKind::Table, 1, pool(0), 0.15),
        orders_idx: add(
            &mut layout,
            "ORDERS_PK",
            ObjectKind::Index,
            1,
            pool(1),
            0.012,
        ),
        orders_idx2: add(
            &mut layout,
            "ORDERS_CUSTKEY",
            ObjectKind::Index,
            1,
            pool(1),
            0.01,
        ),
        partsupp: add(
            &mut layout,
            "PARTSUPP",
            ObjectKind::Table,
            2,
            pool(2),
            0.095,
        ),
        partsupp_idx: add(
            &mut layout,
            "PARTSUPP_PK",
            ObjectKind::Index,
            2,
            pool(1),
            0.008,
        ),
        part: add(&mut layout, "PART", ObjectKind::Table, 3, pool(2), 0.035),
        part_idx: add(&mut layout, "PART_PK", ObjectKind::Index, 3, pool(1), 0.006),
        customer: add(&mut layout, "CUSTOMER", ObjectKind::Table, 4, pool(3), 0.05),
        customer_idx: add(
            &mut layout,
            "CUSTOMER_PK",
            ObjectKind::Index,
            4,
            pool(1),
            0.006,
        ),
        supplier: add(&mut layout, "SUPPLIER", ObjectKind::Table, 5, pool(3), 0.01),
        supplier_idx: add(
            &mut layout,
            "SUPPLIER_PK",
            ObjectKind::Index,
            5,
            pool(1),
            0.002,
        ),
        nation: add(&mut layout, "NATION", ObjectKind::Table, 6, pool(3), 0.0002),
        region: add(&mut layout, "REGION", ObjectKind::Table, 7, pool(3), 0.0002),
        temp: add(&mut layout, "TEMP", ObjectKind::Temporary, 8, pool(4), 0.02),
    };
    (layout, schema)
}

/// The TPC-H-like workload generator.
#[derive(Debug)]
pub struct TpchWorkload {
    config: TpchConfig,
}

impl TpchWorkload {
    /// Creates a generator from a configuration.
    pub fn new(config: TpchConfig) -> Self {
        TpchWorkload { config }
    }

    /// Runs the query stream(s) and returns the resulting storage trace.
    pub fn generate(&self) -> Trace {
        let (layout, schema) = build_layout(
            self.config.database_pages,
            self.config.page_offset,
            self.config.variant,
        );
        let style = match self.config.variant {
            TpchVariant::Db2 => HintStyle::Db2,
            TpchVariant::MySql => HintStyle::MySql,
        };
        let pools = self.pool_configs();
        let mut dbms = DbmsSimulator::new(&self.config.client_name, style, layout, &pools);
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        let queries: Vec<u32> = match self.config.variant {
            TpchVariant::Db2 => (1..=22).collect(),
            // The paper skipped Q18 on MySQL because of excessive run time.
            TpchVariant::MySql => (1..=22).filter(|q| *q != 18).collect(),
        };

        for stream in 0..self.config.query_streams {
            if self.config.variant == TpchVariant::MySql {
                // One server thread executes the whole stream, as when the
                // TPC-H queries are submitted over a single connection.
                dbms.set_thread(stream as u32 % MYSQL_THREADS);
            }
            for &q in queries.iter() {
                self.run_query(&mut dbms, &schema, q, &mut rng);
            }
            if self.config.variant == TpchVariant::Db2 {
                self.refresh_insert(&mut dbms, &schema, &mut rng);
                self.refresh_delete(&mut dbms, &schema, &mut rng);
            }
        }
        dbms.finish()
    }

    fn pool_configs(&self) -> Vec<BufferPoolConfig> {
        match self.config.variant {
            TpchVariant::Db2 => {
                // Five pools; the big-table pool gets most of the memory.
                let total = self.config.buffer_pages.max(5);
                let shares = [0.50, 0.15, 0.15, 0.10, 0.10];
                shares
                    .iter()
                    .map(|s| {
                        BufferPoolConfig::new(((total as f64 * s) as usize).max(1))
                            .with_priority_levels(1)
                    })
                    .collect()
            }
            TpchVariant::MySql => {
                vec![BufferPoolConfig::new(self.config.buffer_pages.max(1)).with_priority_levels(1)]
            }
        }
    }

    /// Executes one of the 22 query templates. Each template is a mix of
    /// sequential scans (with prefetching) over the fact tables and
    /// index-driven lookups into the dimension tables, with sort/aggregation
    /// spill for the heavier queries.
    fn run_query(&self, dbms: &mut DbmsSimulator, s: &Schema, query: u32, rng: &mut StdRng) {
        let li_pages = dbms.layout().pages_of(s.lineitem);
        let ord_pages = dbms.layout().pages_of(s.orders);
        let ps_pages = dbms.layout().pages_of(s.partsupp);
        let part_pages = dbms.layout().pages_of(s.part);
        let cust_pages = dbms.layout().pages_of(s.customer);
        let supp_pages = dbms.layout().pages_of(s.supplier);
        // Fraction of the fact tables touched by each query; approximates
        // the relative heaviness of the TPC-H query set.
        let (li_frac, ord_frac, dims): (f64, f64, u32) = match query {
            1 => (0.95, 0.0, 0),
            2 => (0.0, 0.0, 3),
            3 => (0.35, 0.5, 1),
            4 => (0.25, 0.6, 0),
            5 => (0.30, 0.35, 3),
            6 => (0.60, 0.0, 0),
            7 => (0.30, 0.25, 2),
            8 => (0.20, 0.30, 3),
            9 => (0.45, 0.30, 3),
            10 => (0.25, 0.40, 2),
            11 => (0.0, 0.0, 2),
            12 => (0.35, 0.45, 0),
            13 => (0.0, 0.80, 1),
            14 => (0.30, 0.0, 1),
            15 => (0.35, 0.0, 1),
            16 => (0.0, 0.0, 2),
            17 => (0.30, 0.0, 1),
            18 => (0.70, 0.65, 1),
            19 => (0.25, 0.0, 1),
            20 => (0.30, 0.0, 2),
            21 => (0.55, 0.45, 1),
            _ => (0.05, 0.35, 1),
        };

        // Fact-table scans with sequential prefetch.
        if li_frac > 0.0 {
            let pages = ((li_pages as f64) * li_frac) as u64;
            let start = rng.gen_range(0..li_pages.max(1));
            dbms.scan(s.lineitem, start, pages.max(1), true);
            // Point lookups through the indexes for join probes; odd queries
            // use the primary key, even ones the secondary index.
            let idx = if query.is_multiple_of(2) {
                s.lineitem_idx2
            } else {
                s.lineitem_idx
            };
            for _ in 0..(pages / 64).min(64) {
                dbms.read(idx, hot_index_slot(rng, dbms.layout().pages_of(idx)));
            }
        }
        if ord_frac > 0.0 {
            let pages = ((ord_pages as f64) * ord_frac) as u64;
            let start = rng.gen_range(0..ord_pages.max(1));
            dbms.scan(s.orders, start, pages.max(1), true);
            let idx = if query.is_multiple_of(3) {
                s.orders_idx2
            } else {
                s.orders_idx
            };
            for _ in 0..(pages / 64).min(32) {
                dbms.read(idx, hot_index_slot(rng, dbms.layout().pages_of(idx)));
            }
        }

        // Dimension-table access: smaller scans and skewed index lookups.
        let cust_skew = Zipf::new(cust_pages.max(1) as usize, 0.5);
        for d in 0..dims {
            match (query + d) % 5 {
                0 => {
                    dbms.scan(s.part, 0, (part_pages / 2).max(1), true);
                    for _ in 0..16 {
                        dbms.read(
                            s.part_idx,
                            hot_index_slot(rng, dbms.layout().pages_of(s.part_idx)),
                        );
                    }
                }
                1 => {
                    dbms.scan(s.partsupp, 0, (ps_pages / 2).max(1), true);
                    for _ in 0..16 {
                        dbms.read(
                            s.partsupp_idx,
                            hot_index_slot(rng, dbms.layout().pages_of(s.partsupp_idx)),
                        );
                    }
                }
                2 => {
                    for _ in 0..48 {
                        let slot = cust_skew.sample(rng) as u64;
                        dbms.read(
                            s.customer_idx,
                            hot_index_slot(rng, dbms.layout().pages_of(s.customer_idx)),
                        );
                        dbms.read(s.customer, slot);
                    }
                }
                3 => {
                    dbms.scan(s.supplier, 0, supp_pages.max(1), true);
                    for _ in 0..8 {
                        dbms.read(
                            s.supplier_idx,
                            hot_index_slot(rng, dbms.layout().pages_of(s.supplier_idx)),
                        );
                    }
                }
                _ => {
                    dbms.scan(s.nation, 0, dbms.layout().pages_of(s.nation), false);
                    dbms.scan(s.region, 0, dbms.layout().pages_of(s.region), false);
                }
            }
        }

        // Heavy queries spill sorted runs / hash partitions to temp space.
        if li_frac >= 0.4 || (li_frac + ord_frac) >= 0.7 {
            let temp_pages = dbms.layout().pages_of(s.temp);
            let spill = (temp_pages / 2).max(1);
            let start = rng.gen_range(0..temp_pages.max(1));
            for i in 0..spill {
                dbms.update(s.temp, (start + i) % temp_pages.max(1));
            }
            dbms.scan(s.temp, start, spill, false);
        }
    }

    /// RF1: insert a batch of new orders and their line items.
    fn refresh_insert(&self, dbms: &mut DbmsSimulator, s: &Schema, rng: &mut StdRng) {
        let batch = 64;
        for _ in 0..batch {
            dbms.insert_append(s.orders);
            dbms.update(
                s.orders_idx,
                hot_index_slot(rng, dbms.layout().pages_of(s.orders_idx)),
            );
            for _ in 0..rng.gen_range(1..=5) {
                dbms.insert_append(s.lineitem);
                dbms.update(
                    s.lineitem_idx,
                    hot_index_slot(rng, dbms.layout().pages_of(s.lineitem_idx)),
                );
            }
        }
    }

    /// RF2: delete a batch of old orders (read + rewrite their pages).
    fn refresh_delete(&self, dbms: &mut DbmsSimulator, s: &Schema, rng: &mut StdRng) {
        let batch = 64;
        let ord_pages = dbms.layout().pages_of(s.orders);
        let li_pages = dbms.layout().pages_of(s.lineitem);
        for _ in 0..batch {
            dbms.update(s.orders, rng.gen_range(0..ord_pages));
            dbms.update(s.lineitem, rng.gen_range(0..li_pages));
        }
    }
}

/// Index traversals touch the root/internal pages (the first few pages of
/// the object) far more often than the leaves.
fn hot_index_slot(rng: &mut StdRng, index_pages: u64) -> u64 {
    if index_pages <= 1 {
        return 0;
    }
    if rng.gen_bool(0.5) {
        rng.gen_range(0..index_pages.min(4))
    } else {
        rng.gen_range(0..index_pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(variant: TpchVariant, buffer: usize) -> Trace {
        TpchWorkload::new(
            TpchConfig::new(6_000, buffer, 2, variant)
                .with_seed(3)
                .with_client_name("TPCH_TEST"),
        )
        .generate()
    }

    #[test]
    fn db2_variant_produces_prefetch_reads_and_writes() {
        let trace = tiny(TpchVariant::Db2, 600);
        let summary = trace.summary();
        assert!(summary.reads > 1_000);
        assert!(
            summary.writes > 0,
            "refresh functions and spills must write"
        );
        assert!(trace.requests.iter().any(|r| r.prefetch));
    }

    #[test]
    fn mysql_variant_uses_mysql_hint_schema() {
        let trace = tiny(TpchVariant::MySql, 600);
        let schema = trace.catalog.schema(cache_sim::ClientId(0));
        assert_eq!(schema.arity(), 4);
        assert!(schema.types.iter().any(|t| t.name == "thread ID"));
        // The MySQL schema spans a smaller hint-set space than the DB2
        // schema (Figure 2): fewer hint types, smaller domains.
        let db2_space = tiny(TpchVariant::Db2, 600)
            .catalog
            .schema(cache_sim::ClientId(0))
            .max_hint_sets();
        let mysql_space = schema.max_hint_sets();
        assert!(
            mysql_space < db2_space,
            "MySQL hint-set space ({mysql_space}) should be smaller than DB2's ({db2_space})"
        );
    }

    #[test]
    fn scans_dominate_the_read_stream() {
        let trace = tiny(TpchVariant::Db2, 600);
        let summary = trace.summary();
        assert!(
            summary.reads > 4 * summary.writes,
            "decision-support workloads are read-mostly: {} reads vs {} writes",
            summary.reads,
            summary.writes
        );
    }

    #[test]
    fn bigger_buffer_absorbs_more_traffic() {
        let small = tiny(TpchVariant::Db2, 300).len();
        let large = tiny(TpchVariant::Db2, 4_000).len();
        assert!(
            large < small,
            "large buffer {large} should be below small buffer {small}"
        );
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let a = tiny(TpchVariant::MySql, 500);
        let b = tiny(TpchVariant::MySql, 500);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.requests[..50], b.requests[..50]);
    }
}

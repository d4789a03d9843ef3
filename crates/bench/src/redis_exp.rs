//! Redis experiments: Figure 10 (throughput), Table 4 (tail latency), and
//! Figure 12 (guided-paging bandwidth).

use std::cell::RefCell;
use std::rc::Rc;

use dilos_alloc::Heap;
use dilos_apps::farmem::{cache_sizing, FarMemory, SystemKind, SystemSpec};
use dilos_apps::redis::{
    BenchResult, LrangeBench, RedisBench, RedisGuide, RedisServer, ValueSizes,
};
use dilos_core::{Dilos, DilosConfig, HeapPagingGuide, Readahead};

use crate::table::{f2, ms, Report};

/// A Redis system under test: one of the generic systems, or DiLOS with the
/// app-aware guide attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedisSystem {
    /// A stock system.
    Kind(SystemKind),
    /// DiLOS + readahead + the app-aware Redis guide.
    AppAware,
}

impl RedisSystem {
    /// Table label.
    pub fn label(self) -> String {
        match self {
            RedisSystem::Kind(k) => k.label().to_string(),
            RedisSystem::AppAware => "DiLOS app-aware".to_string(),
        }
    }

    /// The Figure 10 line-up.
    pub const FIG10: [RedisSystem; 5] = [
        RedisSystem::Kind(SystemKind::Fastswap),
        RedisSystem::Kind(SystemKind::DilosNoPrefetch),
        RedisSystem::Kind(SystemKind::DilosReadahead),
        RedisSystem::Kind(SystemKind::DilosTrend),
        RedisSystem::AppAware,
    ];
}

/// A booted Redis deployment.
pub struct RedisSetup {
    /// The far-memory system.
    pub mem: Box<dyn FarMemory>,
    /// The server.
    pub server: RedisServer,
    /// The guide, when attached.
    pub guide: Option<Rc<RefCell<RedisGuide>>>,
}

/// Boots `sys` with a `heap_bytes` DDC heap and a local cache of
/// `ratio` percent of `working_set`; optionally wires guided paging.
pub fn boot_redis(
    sys: RedisSystem,
    heap_bytes: u64,
    working_set: u64,
    ratio: u32,
    zl_cap: u32,
    guided_paging: bool,
) -> RedisSetup {
    // Local cache is a ratio of the *working set*; the remote region must
    // still hold the whole heap.
    let (local_pages, ws_remote) = cache_sizing(working_set, ratio);
    let remote_bytes = ws_remote.max((heap_bytes * 2).next_power_of_two());
    match sys {
        RedisSystem::Kind(kind) => {
            let mut spec = SystemSpec::for_working_set(kind, working_set, ratio);
            spec.remote_bytes = remote_bytes;
            let mut mem = spec.boot();
            let base = mem.alloc(heap_bytes as usize);
            let heap = Rc::new(RefCell::new(Heap::new(base, heap_bytes)));
            let server = RedisServer::new(heap, mem.as_mut(), zl_cap);
            RedisSetup {
                mem,
                server,
                guide: None,
            }
        }
        RedisSystem::AppAware => {
            let mut node = Dilos::new(DilosConfig {
                local_pages,
                remote_bytes,
                ..DilosConfig::default()
            });
            node.set_prefetcher(Box::new(Readahead::new()));
            let base = node.ddc_alloc(heap_bytes as usize);
            let heap = Rc::new(RefCell::new(Heap::new(base, heap_bytes)));
            let guide = Rc::new(RefCell::new(RedisGuide::new()));
            node.set_prefetch_guide(guide.clone());
            if guided_paging {
                node.set_paging_guide(Rc::new(RefCell::new(HeapPagingGuide::new(
                    Rc::clone(&heap),
                    3,
                ))));
            }
            let mut mem: Box<dyn FarMemory> = Box::new(node);
            let mut server = RedisServer::new(heap, mem.as_mut(), zl_cap);
            server.attach_guide(guide.clone());
            RedisSetup {
                mem,
                server,
                guide: Some(guide),
            }
        }
    }
}

/// Scale for the Redis experiments.
#[derive(Debug, Clone, Copy)]
pub struct RedisScale {
    /// Keys for the 4 KiB workload.
    pub keys_4k: usize,
    /// Keys for the 64 KiB workload.
    pub keys_64k: usize,
    /// Keys for the mixed workload.
    pub keys_mixed: usize,
    /// Lists for the LRANGE workload.
    pub lists: usize,
    /// Elements pushed across all lists.
    pub list_elements: usize,
    /// Queries per workload.
    pub queries: usize,
}

impl Default for RedisScale {
    fn default() -> Self {
        Self {
            keys_4k: 512,
            keys_64k: 48,
            keys_mixed: 64,
            lists: 48,
            list_elements: 9_600,
            queries: 800,
        }
    }
}

struct GetSpec {
    label: &'static str,
    keys: usize,
    sizes: ValueSizes,
}

fn get_specs(scale: &RedisScale) -> [GetSpec; 3] {
    [
        GetSpec {
            label: "GET 4KB",
            keys: scale.keys_4k,
            sizes: ValueSizes::Fixed(4096),
        },
        GetSpec {
            label: "GET 64KB",
            keys: scale.keys_64k,
            sizes: ValueSizes::Fixed(64 * 1024),
        },
        GetSpec {
            label: "GET mixed",
            keys: scale.keys_mixed,
            sizes: ValueSizes::Mixed,
        },
    ]
}

fn get_working_set(spec: &GetSpec) -> u64 {
    let avg = match spec.sizes {
        ValueSizes::Fixed(n) => n as u64,
        ValueSizes::Mixed => 42 * 1024, // Mean of the six sizes.
    };
    spec.keys as u64 * (avg + 64)
}

/// One LRANGE cell of Figure 10 / Table 4: `sys` at `ratio` percent local.
/// Element and ziplist sizes follow the paper's geometry: a 100-element
/// range crosses several quicklist nodes, so the query is a pointer chase,
/// not a stream.
pub fn lrange_run(scale: &RedisScale, sys: RedisSystem, ratio: u32) -> BenchResult {
    let bench = LrangeBench {
        lists: scale.lists,
        elements: scale.list_elements,
        elem_size: 400,
        seed: 12,
    };
    let ws = (bench.elements * (bench.elem_size + 40)) as u64;
    let heap_bytes = (ws * 2).next_power_of_two().max(1 << 22);
    let mut setup = boot_redis(sys, heap_bytes, ws, ratio, 4096, false);
    bench.populate(&mut setup.server, setup.mem.as_mut());
    bench.run(&mut setup.server, setup.mem.as_mut(), scale.queries / 4)
}

/// Figure 10: Redis GET and LRANGE throughput vs local memory ratio.
pub fn fig10_redis(scale: RedisScale) -> Report {
    let mut report = Report::new(
        "Figure 10 — Redis throughput (requests/s)",
        &["workload", "system", "12.5%", "25%", "50%", "100%"],
    );
    for spec in get_specs(&scale) {
        let ws = get_working_set(&spec);
        let heap_bytes = (ws * 2).next_power_of_two().max(1 << 22);
        for sys in RedisSystem::FIG10 {
            let mut row = vec![spec.label.to_string(), sys.label()];
            for ratio in crate::apps_exp::RATIOS {
                let mut setup = boot_redis(sys, heap_bytes, ws, ratio, 8192, false);
                let bench = RedisBench {
                    keys: spec.keys,
                    sizes: spec.sizes,
                    seed: 11,
                };
                bench.populate(&mut setup.server, setup.mem.as_mut());
                let r = bench.run_gets(&mut setup.server, setup.mem.as_mut(), scale.queries);
                row.push(format!("{:.0}", r.qps()));
            }
            report.row(row);
        }
    }
    for sys in RedisSystem::FIG10 {
        let mut row = vec!["LRANGE".to_string(), sys.label()];
        for ratio in crate::apps_exp::RATIOS {
            row.push(format!("{:.0}", lrange_run(&scale, sys, ratio).qps()));
        }
        report.row(row);
    }
    report.note(
        "Paper: DiLOS no-prefetch already 1.37–1.52× Fastswap at 12.5 %; prefetchers up to 2.51×.",
    );
    report.note(
        "LRANGE: general-purpose prefetchers gain nothing; app-aware +62 % (2.21× Fastswap).",
    );
    report
}

/// Table 4: tail latency of GET (mixed) and LRANGE at 12.5 % local memory.
pub fn tab04_tail_latency(scale: RedisScale) -> Report {
    let mut report = Report::new(
        "Table 4 — tail latency at 12.5 % local memory (ms)",
        &[
            "system",
            "GET-mixed p99",
            "GET-mixed p99.9",
            "LRANGE p99",
            "LRANGE p99.9",
        ],
    );
    for sys in RedisSystem::FIG10 {
        // GET mixed.
        let spec = &get_specs(&scale)[2];
        let ws = get_working_set(spec);
        let heap_bytes = (ws * 2).next_power_of_two().max(1 << 22);
        let mut setup = boot_redis(sys, heap_bytes, ws, 13, 8192, false);
        let bench = RedisBench {
            keys: spec.keys,
            sizes: spec.sizes,
            seed: 11,
        };
        bench.populate(&mut setup.server, setup.mem.as_mut());
        let get = bench.run_gets(&mut setup.server, setup.mem.as_mut(), scale.queries);

        let lr = lrange_run(&scale, sys, 13);

        report.row(vec![
            sys.label(),
            ms(get.latency.quantile(0.99)),
            ms(get.latency.quantile(0.999)),
            ms(lr.latency.quantile(0.99)),
            ms(lr.latency.quantile(0.999)),
        ]);
    }
    report.note(
        "Units here are µs-scale simulations of the paper's ms-scale table; ordering is the claim.",
    );
    report.note("Paper: app-aware cuts LRANGE p99 by 18 % vs other DiLOS prefetchers; Fastswap worst everywhere.");
    report
}

/// Figure 12: network traffic during DEL then GET, guided paging on vs off.
pub fn fig12_bandwidth(keys: usize, queries: usize) -> Report {
    let mut report = Report::new(
        "Figure 12 — network traffic with guided paging (bytes)",
        &["config", "phase", "tx", "rx", "total", "saved vs unguided"],
    );
    let ws = keys as u64 * 160;
    let heap_bytes = (ws * 4).next_power_of_two().max(1 << 22);
    let mut totals: Vec<(String, [u64; 2])> = Vec::new();
    for guided in [false, true] {
        // Paper: local memory ≈ 25 % of post-DEL usage; populate at 128 B
        // values, DEL 70 %, then GET the survivors.
        let mut setup = boot_redis(RedisSystem::AppAware, heap_bytes, ws, 25, 8192, guided);
        let bench = RedisBench {
            keys,
            sizes: ValueSizes::Fixed(128),
            seed: 5,
        };
        bench.populate(&mut setup.server, setup.mem.as_mut());
        let (tx0, rx0) = setup.mem.net_bytes();
        let deleted = bench.run_dels(&mut setup.server, setup.mem.as_mut(), 70);
        let (tx1, rx1) = setup.mem.net_bytes();
        bench.run_gets_surviving(&mut setup.server, setup.mem.as_mut(), &deleted, queries);
        let (tx2, rx2) = setup.mem.net_bytes();
        let label = if guided { "guided" } else { "unguided" };
        totals.push((
            label.to_string(),
            [tx1 - tx0 + (rx1 - rx0), tx2 - tx1 + (rx2 - rx1)],
        ));
        for (phase, tx, rx) in [("DEL", tx1 - tx0, rx1 - rx0), ("GET", tx2 - tx1, rx2 - rx1)] {
            report.row(vec![
                label.to_string(),
                phase.to_string(),
                tx.to_string(),
                rx.to_string(),
                (tx + rx).to_string(),
                "-".to_string(),
            ]);
        }
    }
    // Savings summary.
    if totals.len() == 2 {
        let (un, gd) = (&totals[0].1, &totals[1].1);
        for (i, phase) in ["DEL", "GET"].iter().enumerate() {
            let saved = 100.0 * (1.0 - gd[i] as f64 / un[i].max(1) as f64);
            report.note(format!(
                "{phase}: guided paging saves {}% of traffic",
                f2(saved)
            ));
        }
    }
    report.note("Paper: 12 % less bandwidth for DEL, 29 % for GET.");
    report
}

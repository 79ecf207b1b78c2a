//! One entry per table and figure of the paper.
//!
//! Each experiment is described as an [`ExperimentPlan`]: a set of
//! independent `Send` shards — legs of the id × OS personality ×
//! seeded-run matrix — plus a render closure that turns the shard
//! samples into the paper's format (tables with Std Dev and Norm.
//! columns, figures as ASCII plots plus CSV series). The shards carry
//! cost hints so the parallel runner can balance them across cores;
//! rendering uses nothing but the shard results, which is what makes
//! `--jobs N` output byte-identical to a serial run.
//!
//! Every experiment also emits a structured [`ExperimentRecord`]
//! (extracted from the same `Table`/`Figure` the text is rendered
//! from) for the golden-baseline store.

use std::sync::Arc;

use crate::plan::{execute, plan, Cell, ExperimentPlan, PlanBody};
use crate::plot::{Figure, XScale};
use crate::scale::Scale;
use crate::table::{Direction, Row, Table};
use tnt_core::{
    bonnie, crtdel_ms, ctx_us, mab_local, mab_over_nfs, mem_bandwidth, packet_sizes,
    pipe_bandwidth_mbit, syscall_us, tcp_bandwidth_mbit, udp_bandwidth_mbit, CtxPattern,
    LibcVariant, MemRoutine, Os,
};
use tnt_runner::ExperimentRecord;
use tnt_sim::{Series, Summary};

/// The rendered result of one experiment.
#[derive(Clone, Debug)]
pub struct ExperimentOutput {
    /// Short id: "t2", "f1", ...
    pub id: &'static str,
    /// Paper title of the table/figure.
    pub title: &'static str,
    /// Rendered text (table or ASCII figure).
    pub text: String,
    /// CSV files to write: (file name, contents).
    pub csv: Vec<(String, String)>,
    /// Machine-readable statistics for the baselines store. `None`
    /// only for failure reports.
    pub record: Option<ExperimentRecord>,
}

/// Every experiment id, in paper order.
pub fn all_ids() -> Vec<&'static str> {
    vec![
        "t1", "t2", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "f10", "f11", "f12",
        "t3", "t4", "f13", "t5", "t6", "t7",
    ]
}

/// Runs one experiment by id, serially. Some ids share computation
/// (f9-f11 all run bonnie), so prefer [`run_many`] for several ids.
pub fn run_one(id: &str, scale: &Scale) -> Vec<ExperimentOutput> {
    let outputs: Vec<ExperimentOutput> = execute(plan(&[id], scale), 1)
        .into_iter()
        .flat_map(|r| r.outputs)
        .collect();
    if matches!(id, "f9" | "f10" | "f11") {
        // The shared sweep renders all three figures; keep only the
        // requested one.
        outputs.into_iter().filter(|o| o.id == id).collect()
    } else {
        outputs
    }
}

/// Runs a set of experiments serially, sharing work where possible.
/// The parallel path is `execute(plan(ids, scale), jobs)`; this is its
/// single-worker reference, byte-identical by construction.
pub fn run_many(ids: &[&str], scale: &Scale) -> Vec<ExperimentOutput> {
    execute(plan(ids, scale), 1)
        .into_iter()
        .flat_map(|r| r.outputs)
        .collect()
}

/// Plans one experiment by id (bonnie legs are planned together via
/// [`plan_bonnie`]; `plan` handles that grouping).
pub(crate) fn plan_one(id: &str, scale: &Scale) -> ExperimentPlan {
    match id {
        "t1" => plan_t1(),
        "t2" => plan_t2(scale),
        "f1" => plan_f1(scale),
        "f2" => plan_mem(
            "f2",
            "FIGURE 2. Custom Read",
            vec![("custom read", MemRoutine::CustomRead)],
            scale,
        ),
        "f3" => plan_mem(
            "f3",
            "FIGURE 3. Memset",
            libc_curves(MemRoutine::LibcMemset),
            scale,
        ),
        "f4" => plan_mem(
            "f4",
            "FIGURE 4. Naive Custom Write",
            vec![("naive write", MemRoutine::CustomWriteNaive)],
            scale,
        ),
        "f5" => plan_mem(
            "f5",
            "FIGURE 5. Prefetching Custom Write",
            vec![("prefetch write", MemRoutine::CustomWritePrefetch)],
            scale,
        ),
        "f6" => plan_mem(
            "f6",
            "FIGURE 6. Memcpy",
            libc_curves(MemRoutine::LibcMemcpy),
            scale,
        ),
        "f7" => plan_mem(
            "f7",
            "FIGURE 7. Naive Custom Copy",
            vec![("naive copy", MemRoutine::CustomCopyNaive)],
            scale,
        ),
        "f8" => plan_mem(
            "f8",
            "FIGURE 8. Prefetching Custom Copy",
            vec![("prefetch copy", MemRoutine::CustomCopyPrefetch)],
            scale,
        ),
        "f9" | "f10" | "f11" => plan_bonnie(scale),
        "f12" => plan_f12(scale),
        "t3" => plan_t3(scale),
        "t4" => plan_t4(scale),
        "f13" => plan_f13(scale),
        "t5" => plan_t5(scale),
        "t6" => plan_nfs("t6", Os::Linux, scale),
        "t7" => plan_nfs("t7", Os::SunOs, scale),
        "x1" | "x2" | "x3" | "x4" | "x5" | "x6" | "x7" | "x8" => {
            crate::ablations::plan_extra(id, scale)
        }
        "x9" => crate::farm::plan_x9(scale),
        "x10" => crate::farm::plan_x10(scale),
        "x11" => crate::replay::plan_x11(scale),
        "x12" => crate::replay::plan_x12(scale),
        other => panic!("unknown experiment id {other:?}"),
    }
}

fn os_label(os: Os) -> String {
    os.label().to_string()
}

// ---------------------------------------------------------------------
// Generic builders: table plans and figure plans.
// ---------------------------------------------------------------------

/// Per-seed sampler for one table row.
type RowSampler = Arc<dyn Fn(u64) -> f64 + Send + Sync>;
/// Sampler for one point of a figure curve: one sample per seed.
type CurveSampler = Arc<dyn Fn(f64, &[u64]) -> Vec<f64> + Send + Sync>;

/// A curve sampler that measures every seed with `sample(x, seed)`.
fn each_seed(sample: impl Fn(f64, u64) -> f64 + Send + Sync + 'static) -> CurveSampler {
    Arc::new(move |x, seeds| seeds.iter().map(|&seed| sample(x, seed)).collect())
}

/// A table experiment: one cell per (row × seed), rendered into a
/// paper-style table with an extracted record.
#[expect(
    clippy::too_many_arguments,
    reason = "one positional builder for every table experiment; each argument is a distinct table field"
)]
fn table_plan(
    id: &'static str,
    title: &'static str,
    table_title: String,
    unit: &'static str,
    direction: Direction,
    rows: Vec<(String, f64, RowSampler)>,
    seeds: Vec<u64>,
    cell_cost: u64,
) -> ExperimentPlan {
    let mut cells = Vec::new();
    for (label, _, sampler) in &rows {
        for &seed in &seeds {
            let sampler = sampler.clone();
            cells.push(Cell {
                label: format!("{id}/{label}/run{seed}"),
                cost: cell_cost,
                work: Box::new(move || vec![sampler(seed)]),
            });
        }
    }
    let n_seeds = seeds.len();
    let meta: Vec<(String, f64)> = rows.into_iter().map(|(l, p, _)| (l, p)).collect();
    let render = Box::new(move |shards: Vec<Vec<f64>>| {
        let rows = meta
            .into_iter()
            .enumerate()
            .map(|(i, (label, paper))| {
                let samples: Vec<f64> = shards[i * n_seeds..(i + 1) * n_seeds]
                    .iter()
                    .flat_map(|v| v.iter().copied())
                    .collect();
                Row {
                    label,
                    summary: Summary::of(&samples),
                    paper,
                }
            })
            .collect();
        let table = Table {
            title: table_title,
            unit,
            direction,
            rows,
        };
        let record =
            ExperimentRecord::new(id, title, n_seeds as u64).with_stats(table.stat_lines());
        vec![ExperimentOutput {
            id,
            title,
            text: table.render(),
            csv: vec![],
            record: Some(record),
        }]
    });
    ExperimentPlan {
        id,
        title,
        body: PlanBody::Cells { cells, render },
    }
}

/// A figure experiment: one cell per (curve × x), each covering all
/// seeds, rendered into an ASCII figure + CSV with an extracted
/// record.
#[expect(
    clippy::too_many_arguments,
    reason = "one positional builder for every figure experiment; each argument is a distinct figure field"
)]
fn figure_plan(
    id: &'static str,
    title: &'static str,
    fig_title: String,
    x_label: String,
    y_label: String,
    x_scale: XScale,
    curves: Vec<(String, CurveSampler)>,
    xs: Vec<f64>,
    seeds: Vec<u64>,
    cost_of_x: impl Fn(f64) -> u64,
    csv_name: String,
) -> ExperimentPlan {
    let mut cells = Vec::new();
    for (label, sampler) in &curves {
        for &x in &xs {
            let sampler = sampler.clone();
            let seeds = seeds.clone();
            cells.push(Cell {
                label: format!("{id}/{label}/x={x}"),
                cost: cost_of_x(x),
                work: Box::new(move || sampler(x, &seeds)),
            });
        }
    }
    let n_xs = xs.len();
    let runs = seeds.len() as u64;
    let labels: Vec<String> = curves.into_iter().map(|(l, _)| l).collect();
    let render = Box::new(move |shards: Vec<Vec<f64>>| {
        let mut series = Vec::new();
        for (ci, label) in labels.into_iter().enumerate() {
            let mut s = Series::new(label);
            for (xi, &x) in xs.iter().enumerate() {
                let samples = &shards[ci * n_xs + xi];
                s.push(x, Summary::of(samples).mean);
            }
            series.push(s);
        }
        let fig = Figure {
            title: fig_title,
            x_label,
            y_label,
            x_scale,
            series,
        };
        let record = ExperimentRecord::new(id, title, runs).with_stats(fig.stat_lines());
        vec![ExperimentOutput {
            id,
            title,
            text: fig.render(),
            csv: vec![(csv_name, fig.to_csv())],
            record: Some(record),
        }]
    });
    ExperimentPlan {
        id,
        title,
        body: PlanBody::Cells { cells, render },
    }
}

// ---------------------------------------------------------------------
// Table 1: static configuration.
// ---------------------------------------------------------------------

fn plan_t1() -> ExperimentPlan {
    ExperimentPlan {
        id: "t1",
        title: "TABLE 1. Disk Partitioning",
        body: PlanBody::Whole {
            cost: 1,
            run: Box::new(|| {
                let text = "\
TABLE 1. Disk Partitioning (configuration, reproduced verbatim)
  OS            Version   Size (MB)
  ---------------------------------
  DOS/Windows   6.2/3.1   250
  Solaris       2.4       700
  FreeBSD       2.0.5R    400
  Linux         1.2.8     600
  Benchmark disk: HP 3725 (fresh 200 MB filesystem per experiment)
  System disk:    Quantum Empire 2100S
"
                .to_string();
                vec![ExperimentOutput {
                    id: "t1",
                    title: "TABLE 1. Disk Partitioning",
                    text,
                    csv: vec![],
                    record: Some(ExperimentRecord::new("t1", "TABLE 1. Disk Partitioning", 1)),
                }]
            }),
        },
    }
}

// ---------------------------------------------------------------------
// Table 2: system call.
// ---------------------------------------------------------------------

fn plan_t2(scale: &Scale) -> ExperimentPlan {
    let paper = [(Os::Linux, 2.31), (Os::FreeBsd, 2.62), (Os::Solaris, 3.52)];
    let iters = scale.syscall_iters;
    let rows = paper
        .iter()
        .map(|&(os, paper_us)| {
            let sampler: RowSampler = Arc::new(move |seed| syscall_us(os, iters, seed));
            (os_label(os), paper_us, sampler)
        })
        .collect();
    table_plan(
        "t2",
        "TABLE 2. System Call",
        "TABLE 2. System Call (getpid)".into(),
        "µs",
        Direction::LowerBetter,
        rows,
        scale.seeds(),
        (scale.syscall_iters as u64) / 10,
    )
}

// ---------------------------------------------------------------------
// Figure 1: context switching.
// ---------------------------------------------------------------------

fn plan_f1(scale: &Scale) -> ExperimentPlan {
    let specs: Vec<(String, Os, CtxPattern)> = vec![
        ("Linux".into(), Os::Linux, CtxPattern::Ring),
        ("FreeBSD".into(), Os::FreeBsd, CtxPattern::Ring),
        ("Solaris".into(), Os::Solaris, CtxPattern::Ring),
        ("Solaris-LIFO".into(), Os::Solaris, CtxPattern::LifoChain),
    ];
    let switches = scale.ctx_switches;
    let curves = specs
        .into_iter()
        .map(|(label, os, pattern)| {
            let sampler = each_seed(move |x, seed| ctx_us(os, x as usize, switches, pattern, seed));
            (label, sampler)
        })
        .collect();
    figure_plan(
        "f1",
        "FIGURE 1. Context Switch",
        "FIGURE 1. Context Switch (µs per switch incl. pipe overhead)".into(),
        "active processes".into(),
        "µs/switch".into(),
        XScale::Linear,
        curves,
        scale.ctx_procs.iter().map(|&n| n as f64).collect(),
        scale.seeds(),
        move |x| switches * (x as u64) / 2,
        "f1_ctx.csv".into(),
    )
}

// ---------------------------------------------------------------------
// Figures 2-8: memory bandwidth.
// ---------------------------------------------------------------------

fn libc_curves(make: fn(LibcVariant) -> MemRoutine) -> Vec<(&'static str, MemRoutine)> {
    vec![
        ("Linux libc", make(LibcVariant::Linux)),
        ("FreeBSD libc", make(LibcVariant::FreeBsd)),
        ("Solaris libc", make(LibcVariant::Solaris)),
    ]
}

fn plan_mem(
    id: &'static str,
    title: &'static str,
    curves: Vec<(&'static str, MemRoutine)>,
    scale: &Scale,
) -> ExperimentPlan {
    let total = scale.mem_total;
    let curves = curves
        .into_iter()
        .map(|(label, routine)| {
            // The memory model is deterministic: no seed moves a
            // bandwidth, so one measurement serves every seed.
            let sampler: CurveSampler = Arc::new(move |x, seeds| {
                vec![mem_bandwidth(routine, x as u64, total, 0); seeds.len()]
            });
            (label.to_string(), sampler)
        })
        .collect();
    figure_plan(
        id,
        title,
        format!("{title} (MB/s vs buffer size)"),
        "buffer size (bytes, log2)".into(),
        "MB/s".into(),
        XScale::Log2,
        curves,
        scale.mem_sizes.iter().map(|&b| b as f64).collect(),
        scale.seeds(),
        move |_| total / 300,
        format!("{id}_mem.csv"),
    )
}

// ---------------------------------------------------------------------
// Figures 9-11: bonnie (one sweep, three figures).
// ---------------------------------------------------------------------

/// Plans the shared bonnie sweep: one cell per (OS × file size), each
/// returning `[write, read, seeks]` per seed; the render emits Figures
/// 9, 10 and 11 from the one sweep.
pub(crate) fn plan_bonnie(scale: &Scale) -> ExperimentPlan {
    let oses = Os::benchmarked();
    let sizes = scale.bonnie_sizes_mb.clone();
    let seeks = scale.bonnie_seeks;
    let seeds = scale.mab_seeds();
    let mut cells = Vec::new();
    for &os in &oses {
        for &mb in &sizes {
            let seeds = seeds.clone();
            cells.push(Cell {
                label: format!("bonnie/{}/{}MB", os.label(), mb),
                cost: mb * 1500,
                work: Box::new(move || {
                    let mut out = Vec::with_capacity(seeds.len() * 3);
                    for &seed in &seeds {
                        let b = bonnie(os, mb, seeks, seed);
                        out.push(b.write_mb_s);
                        out.push(b.read_mb_s);
                        out.push(b.seeks_per_s);
                    }
                    out
                }),
            });
        }
    }
    let runs = seeds.len() as u64;
    let n_sizes = sizes.len();
    let render = Box::new(move |shards: Vec<Vec<f64>>| {
        let mut write: Vec<Series> = Vec::new();
        let mut read: Vec<Series> = Vec::new();
        let mut seeks: Vec<Series> = Vec::new();
        for (oi, os) in oses.iter().enumerate() {
            let mut ws = Series::new(os.label());
            let mut rs = Series::new(os.label());
            let mut ss = Series::new(os.label());
            for (si, &mb) in sizes.iter().enumerate() {
                let shard = &shards[oi * n_sizes + si];
                let w: Vec<f64> = shard.iter().step_by(3).copied().collect();
                let r: Vec<f64> = shard.iter().skip(1).step_by(3).copied().collect();
                let s: Vec<f64> = shard.iter().skip(2).step_by(3).copied().collect();
                ws.push(mb as f64, Summary::of(&w).mean);
                rs.push(mb as f64, Summary::of(&r).mean);
                ss.push(mb as f64, Summary::of(&s).mean);
            }
            write.push(ws);
            read.push(rs);
            seeks.push(ss);
        }
        let make = |id: &'static str, title: &'static str, y: &str, series: Vec<Series>| {
            let fig = Figure {
                title: format!("{title} vs file size (MB, log2)"),
                x_label: "file size (MB, log2)".into(),
                y_label: y.into(),
                x_scale: XScale::Log2,
                series,
            };
            let record = ExperimentRecord::new(id, title, runs).with_stats(fig.stat_lines());
            ExperimentOutput {
                id,
                title,
                text: fig.render(),
                csv: vec![(format!("{id}_bonnie.csv"), fig.to_csv())],
                record: Some(record),
            }
        };
        vec![
            make("f9", "FIGURE 9. Bonnie Read", "MB/s", read),
            make("f10", "FIGURE 10. Bonnie Write", "MB/s", write),
            make("f11", "FIGURE 11. Bonnie Seek", "seeks/s", seeks),
        ]
    });
    ExperimentPlan {
        id: "f9+f10+f11",
        title: "FIGURES 9-11. Bonnie",
        body: PlanBody::Cells { cells, render },
    }
}

/// Runs the bonnie sweep once (serially) and renders Figures 9-11.
pub fn bonnie_figures(scale: &Scale) -> Vec<ExperimentOutput> {
    execute(vec![plan_bonnie(scale)], 1)
        .into_iter()
        .flat_map(|r| r.outputs)
        .collect()
}

// ---------------------------------------------------------------------
// Figure 12: crtdel.
// ---------------------------------------------------------------------

fn plan_f12(scale: &Scale) -> ExperimentPlan {
    let iters = scale.crtdel_iters;
    let curves = Os::benchmarked()
        .into_iter()
        .map(|os| {
            let sampler = each_seed(move |x, seed| crtdel_ms(os, x as u64, iters, seed));
            (os_label(os), sampler)
        })
        .collect();
    figure_plan(
        "f12",
        "FIGURE 12. File Create/Delete",
        "FIGURE 12. File Create/Delete (ms per iteration)".into(),
        "file size (bytes, log2)".into(),
        "ms".into(),
        XScale::Log2,
        curves,
        scale.crtdel_sizes.iter().map(|&s| s as f64).collect(),
        scale.seeds(),
        |_| 3_000,
        "f12_crtdel.csv".into(),
    )
}

// ---------------------------------------------------------------------
// Table 3: MAB local.
// ---------------------------------------------------------------------

fn plan_t3(scale: &Scale) -> ExperimentPlan {
    let paper = [
        (Os::Linux, 43.12),
        (Os::FreeBsd, 47.45),
        (Os::Solaris, 54.31),
    ];
    let seeds = scale.mab_seeds();
    let n_seeds = seeds.len();
    // Per OS: one cell per seeded run (total_s), then one cell for the
    // phase breakdown at the reference seed.
    let mut cells = Vec::new();
    for &(os, _) in &paper {
        for &seed in &seeds {
            cells.push(Cell {
                label: format!("t3/{}/run{seed}", os.label()),
                cost: 3_000,
                work: Box::new(move || vec![mab_local(os, seed).total_s]),
            });
        }
        cells.push(Cell {
            label: format!("t3/{}/phases", os.label()),
            cost: 3_000,
            work: Box::new(move || mab_local(os, 1).phase_s.to_vec()),
        });
    }
    let render = Box::new(move |shards: Vec<Vec<f64>>| {
        let mut rows = Vec::new();
        let mut phases_text = String::new();
        let stride = n_seeds + 1;
        for (i, &(os, paper_s)) in paper.iter().enumerate() {
            let samples: Vec<f64> = shards[i * stride..i * stride + n_seeds]
                .iter()
                .flat_map(|v| v.iter().copied())
                .collect();
            let phases = &shards[i * stride + n_seeds];
            phases_text.push_str(&format!(
                "  {:<12} phases (s): mkdir {:.2}  copy {:.2}  stat {:.2}  read {:.2}  compile {:.2}\n",
                os.label(),
                phases[0],
                phases[1],
                phases[2],
                phases[3],
                phases[4]
            ));
            rows.push(Row {
                label: os_label(os),
                summary: Summary::of(&samples),
                paper: paper_s,
            });
        }
        let table = Table {
            title: "TABLE 3. MAB Local (seconds)".into(),
            unit: "s",
            direction: Direction::LowerBetter,
            rows,
        };
        let record = ExperimentRecord::new("t3", "TABLE 3. MAB Local", n_seeds as u64)
            .with_stats(table.stat_lines());
        vec![ExperimentOutput {
            id: "t3",
            title: "TABLE 3. MAB Local",
            text: format!("{}{}", table.render(), phases_text),
            csv: vec![],
            record: Some(record),
        }]
    });
    ExperimentPlan {
        id: "t3",
        title: "TABLE 3. MAB Local",
        body: PlanBody::Cells { cells, render },
    }
}

// ---------------------------------------------------------------------
// Table 4: pipe bandwidth.
// ---------------------------------------------------------------------

fn plan_t4(scale: &Scale) -> ExperimentPlan {
    let paper = [
        (Os::Linux, 119.36),
        (Os::FreeBsd, 98.03),
        (Os::Solaris, 65.38),
    ];
    let total = scale.pipe_total;
    let rows = paper
        .iter()
        .map(|&(os, p)| {
            let sampler: RowSampler =
                Arc::new(move |seed| pipe_bandwidth_mbit(os, total, tnt_core::BW_PIPE_CHUNK, seed));
            (os_label(os), p, sampler)
        })
        .collect();
    table_plan(
        "t4",
        "TABLE 4. Pipe Bandwidth",
        "TABLE 4. Pipe Bandwidth (bw_pipe, 64 KB chunks)".into(),
        "Mb/s",
        Direction::HigherBetter,
        rows,
        scale.seeds(),
        scale.pipe_total / 400,
    )
}

// ---------------------------------------------------------------------
// Figure 13: UDP bandwidth vs packet size.
// ---------------------------------------------------------------------

fn plan_f13(scale: &Scale) -> ExperimentPlan {
    let total = scale.udp_total;
    let curves = Os::benchmarked()
        .into_iter()
        .map(|os| {
            let sampler = each_seed(move |x, seed| udp_bandwidth_mbit(os, x as u64, total, seed));
            (os_label(os), sampler)
        })
        .collect();
    figure_plan(
        "f13",
        "FIGURE 13. UDP",
        "FIGURE 13. UDP Bandwidth (ttcp, loopback)".into(),
        "packet size (bytes, log2)".into(),
        "Mb/s".into(),
        XScale::Log2,
        curves,
        packet_sizes().into_iter().map(|p| p as f64).collect(),
        scale.seeds(),
        move |_| total / 500,
        "f13_udp.csv".into(),
    )
}

// ---------------------------------------------------------------------
// Table 5: TCP bandwidth.
// ---------------------------------------------------------------------

fn plan_t5(scale: &Scale) -> ExperimentPlan {
    let paper = [
        (Os::FreeBsd, 65.95),
        (Os::Solaris, 60.11),
        (Os::Linux, 25.03),
    ];
    let total = scale.tcp_total;
    let rows = paper
        .iter()
        .map(|&(os, p)| {
            let sampler: RowSampler =
                Arc::new(move |seed| tcp_bandwidth_mbit(os, total, tnt_core::BW_TCP_CHUNK, seed));
            (os_label(os), p, sampler)
        })
        .collect();
    table_plan(
        "t5",
        "TABLE 5. TCP Bandwidth",
        "TABLE 5. TCP Bandwidth (bw_tcp, 48 KB buffer, loopback)".into(),
        "Mb/s",
        Direction::HigherBetter,
        rows,
        scale.seeds(),
        scale.tcp_total / 400,
    )
}

// ---------------------------------------------------------------------
// Tables 6-7: MAB over NFS.
// ---------------------------------------------------------------------

fn plan_nfs(id: &'static str, server: Os, scale: &Scale) -> ExperimentPlan {
    let (title, table_title, paper): (&'static str, &'static str, [(Os, f64); 3]) = match server {
        Os::Linux => (
            "TABLE 6. MAB NFS with Linux Server",
            "TABLE 6. MAB NFS with Linux Server (seconds)",
            [
                (Os::FreeBsd, 53.24),
                (Os::Linux, 57.73),
                (Os::Solaris, 58.38),
            ],
        ),
        Os::SunOs => (
            "TABLE 7. MAB NFS with SunOS Server",
            "TABLE 7. MAB NFS with SunOS Server (seconds)",
            [
                (Os::FreeBsd, 67.60),
                (Os::Solaris, 87.94),
                (Os::Linux, 115.06),
            ],
        ),
        other => panic!("no NFS table for server {other:?}"),
    };
    let rows = paper
        .iter()
        .map(|&(client, p)| {
            let sampler: RowSampler =
                Arc::new(move |seed| mab_over_nfs(client, server, seed).total_s);
            (os_label(client), p, sampler)
        })
        .collect();
    table_plan(
        id,
        title,
        table_title.to_string(),
        "s",
        Direction::LowerBetter,
        rows,
        scale.mab_seeds(),
        35_000,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ids_covered_by_run_one() {
        // Every id must dispatch without panicking (smoke scale, cheap
        // ids only; the heavyweight ones are covered by integration
        // tests and the reproduce binary).
        let scale = Scale::smoke();
        for id in ["t1", "t2", "f12", "t4"] {
            let outs = run_one(id, &scale);
            assert!(!outs.is_empty());
            assert!(outs.iter().all(|o| !o.text.is_empty()));
        }
    }

    #[test]
    fn t2_table_contains_all_systems_and_paper_values() {
        let out = &run_one("t2", &Scale::smoke())[0];
        assert!(out.text.contains("Linux"));
        assert!(out.text.contains("FreeBSD"));
        assert!(out.text.contains("Solaris 2.4"));
        assert!(
            out.text.contains("2.31"),
            "paper column present:\n{}",
            out.text
        );
    }

    #[test]
    fn mem_figure_produces_csv() {
        let out = run_one("f2", &Scale::smoke());
        assert_eq!(out[0].csv.len(), 1);
        assert!(out[0].csv[0].1.lines().count() > 3);
    }

    #[test]
    fn bonnie_figures_share_one_sweep() {
        let outs = bonnie_figures(&Scale::smoke());
        assert_eq!(outs.len(), 3);
        let ids: Vec<_> = outs.iter().map(|o| o.id).collect();
        assert_eq!(ids, vec!["f9", "f10", "f11"]);
    }

    #[test]
    fn run_many_deduplicates_bonnie() {
        let outs = run_many(&["f9", "f10", "f11"], &Scale::smoke());
        assert_eq!(outs.len(), 3, "one sweep, three figures");
    }

    #[test]
    fn every_experiment_carries_a_record() {
        let scale = Scale::smoke();
        for id in ["t1", "t2", "f2", "t4"] {
            for out in run_one(id, &scale) {
                let rec = out.record.as_ref().unwrap_or_else(|| {
                    panic!("{id} has no record");
                });
                assert_eq!(rec.id, out.id);
            }
        }
        // Table records carry one stat line per OS with the best at
        // norm 1.0.
        let t2 = &run_one("t2", &scale)[0];
        let rec = t2.record.as_ref().unwrap();
        assert_eq!(rec.stats.len(), 3);
        assert!((rec.stats[0].norm - 1.0).abs() < 1e-9);
        assert_eq!(rec.runs, scale.runs);
    }

    #[test]
    #[should_panic(expected = "unknown experiment id")]
    fn unknown_id_panics() {
        run_one("f99", &Scale::smoke());
    }
}

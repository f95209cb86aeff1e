//! Figure 9 — memory traffic by access type, normalized to SGX_O.
//!
//! Reads, writes and overall traffic split into program data, counters,
//! integrity-tree nodes, MACs (security bloat) and parity (reliability
//! bloat). Paper: Synergy removes the MAC accesses on reads and writes,
//! pays parity updates on writes, and reduces overall accesses by 18%.

use synergy_bench::*;
use synergy_dram::RequestClass;
use synergy_secure::DesignConfig;

struct Agg {
    reads: [f64; 5],
    writes: [f64; 5],
    n: usize,
}

impl Agg {
    fn new() -> Self {
        Self { reads: [0.0; 5], writes: [0.0; 5], n: 0 }
    }

    fn add(&mut self, t: &synergy_core::system::TrafficBreakdown) {
        for i in 0..5 {
            self.reads[i] += t.read_apki[i];
            self.writes[i] += t.write_apki[i];
        }
        self.n += 1;
    }

    fn read_total(&self) -> f64 {
        self.reads.iter().sum::<f64>() / self.n as f64
    }

    fn write_total(&self) -> f64 {
        self.writes.iter().sum::<f64>() / self.n as f64
    }

    fn total(&self) -> f64 {
        self.read_total() + self.write_total()
    }

    fn mean(&self, v: &[f64; 5], class: RequestClass) -> f64 {
        v[class.index()] / self.n as f64
    }
}

fn main() {
    banner("Figure 9 — memory traffic breakdown (normalized to SGX_O)", "Figure 9");
    let workloads = perf_workloads();

    let designs = [DesignConfig::sgx(), DesignConfig::sgx_o(), DesignConfig::synergy()];
    let mut aggs: Vec<Agg> = designs.iter().map(|_| Agg::new()).collect();
    let mut metrics = MetricsSnapshot::new();
    let report = run_sweep(&workloads, &designs, |w, d| SweepCell::single(d, w, 2));
    for (w, row) in workloads.iter().zip(&report.results) {
        for ((d, agg), r) in designs.iter().zip(aggs.iter_mut()).zip(row) {
            metrics.add_run(d.name, w.name, r);
            agg.add(&r.traffic);
        }
    }

    let base_read = aggs[1].read_total();
    let base_write = aggs[1].write_total();
    let base_total = aggs[1].total();

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (section, norm, pick) in [
        ("reads", base_read, 0usize),
        ("writes", base_write, 1),
        ("overall", base_total, 2),
    ] {
        for (d, agg) in designs.iter().zip(aggs.iter()) {
            let (data, ctr, tree, mac, parity) = match pick {
                0 => (
                    agg.mean(&agg.reads, RequestClass::Data),
                    agg.mean(&agg.reads, RequestClass::Counter),
                    agg.mean(&agg.reads, RequestClass::TreeNode),
                    agg.mean(&agg.reads, RequestClass::Mac),
                    agg.mean(&agg.reads, RequestClass::Parity),
                ),
                1 => (
                    agg.mean(&agg.writes, RequestClass::Data),
                    agg.mean(&agg.writes, RequestClass::Counter),
                    agg.mean(&agg.writes, RequestClass::TreeNode),
                    agg.mean(&agg.writes, RequestClass::Mac),
                    agg.mean(&agg.writes, RequestClass::Parity),
                ),
                _ => (
                    agg.mean(&agg.reads, RequestClass::Data)
                        + agg.mean(&agg.writes, RequestClass::Data),
                    agg.mean(&agg.reads, RequestClass::Counter)
                        + agg.mean(&agg.writes, RequestClass::Counter),
                    agg.mean(&agg.reads, RequestClass::TreeNode)
                        + agg.mean(&agg.writes, RequestClass::TreeNode),
                    agg.mean(&agg.reads, RequestClass::Mac)
                        + agg.mean(&agg.writes, RequestClass::Mac),
                    agg.mean(&agg.reads, RequestClass::Parity)
                        + agg.mean(&agg.writes, RequestClass::Parity),
                ),
            };
            let total = data + ctr + tree + mac + parity;
            rows.push(vec![
                format!("{section}/{}", d.name),
                format!("{:.2}", data / norm),
                format!("{:.2}", ctr / norm),
                format!("{:.2}", tree / norm),
                format!("{:.2}", mac / norm),
                format!("{:.2}", parity / norm),
                format!("{:.2}", total / norm),
            ]);
            csv.push(format!(
                "{section},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
                d.name,
                data / norm,
                ctr / norm,
                tree / norm,
                mac / norm,
                parity / norm,
                total / norm
            ));
        }
    }
    // Column labels come straight from RequestClass so the table, the CSV
    // and the metric names in the exporter can never drift apart.
    let class_names: Vec<&str> = RequestClass::ALL.iter().map(|c| c.name()).collect();
    let mut headers = vec!["section/design"];
    headers.extend(class_names.iter().copied());
    headers.push("total");
    print_table(&headers, &rows);

    let syn_reduction = 1.0 - aggs[2].total() / base_total;
    println!("\npaper:    Synergy reduces overall memory accesses by 18%");
    println!("measured: Synergy reduces overall memory accesses by {:.0}%", 100.0 * syn_reduction);
    let csv_header = format!("section,design,{},total", class_names.join(","));
    write_csv("fig09_traffic", &csv_header, &csv);
    metrics.add_registry("sweep", &report.registry(), &[]);
    metrics.write("fig09_traffic");
}

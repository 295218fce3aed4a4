//! Cross-layer reconciliation: the energy model and the flow observer
//! must be billing the *same* network.
//!
//! `gsim-energy` prices NoC energy from the aggregate
//! `TrafficBreakdown` the NoC maintains; `gsim-flow` re-derives the
//! same flit crossings link by link from its own hooks. If the per-link
//! sums agree with the aggregate class-for-class, then the joules the
//! energy model charges to the network are exactly the joules implied
//! by the observed per-link traffic — no flit is priced that never
//! crossed a link, and none crosses unpriced.

use gpu_denovo::energy::EnergyModel;
use gpu_denovo::flow::DEFAULT_JOURNEY_PERIOD;
use gpu_denovo::trace::{TraceHandle, DEFAULT_SAMPLE_INTERVAL};
use gpu_denovo::types::MsgClass;
use gpu_denovo::workloads::litmus;
use gpu_denovo::{FlowCollector, ProtocolConfig, Simulator, SystemConfig};
use std::cell::RefCell;
use std::rc::Rc;

#[test]
fn energy_traffic_agrees_with_flow_link_sums_class_for_class() {
    let model = EnergyModel::micro15();
    for shape in litmus::battery() {
        let w = (shape.build)();
        for p in ProtocolConfig::ALL {
            let cfg = SystemConfig::micro15(p);
            let flow = FlowCollector::new(
                &cfg.run_shape(),
                DEFAULT_SAMPLE_INTERVAL,
                DEFAULT_JOURNEY_PERIOD,
            );
            let flow = Rc::new(RefCell::new(flow));
            let handle = TraceHandle::disabled().with_consumers([flow.clone() as _]);
            let stats = Simulator::new(cfg)
                .run_traced(&w, handle)
                .expect("run succeeds");
            let report = flow.borrow_mut().take_report();

            // Per-link sums == the aggregate breakdown, class by class.
            let sums = report.class_totals();
            for class in MsgClass::ALL {
                assert_eq!(
                    sums[class.index()],
                    stats.traffic.class(class),
                    "{} under {p}: {class:?} flits differ between the \
                     per-link attribution and the aggregate breakdown",
                    shape.name
                );
            }

            // Therefore the energy model's network bill is exactly the
            // per-link traffic priced at the per-hop energy.
            let e = model.energy(&stats.counts, &stats.traffic);
            let expected_noc_pj = report.total_flits() as f64 * model.flit_hop_pj;
            assert_eq!(
                e.noc_pj, expected_noc_pj,
                "{} under {p}: NoC energy is not the observed flit count \
                 times the per-hop energy",
                shape.name
            );
            // And it matches what the simulator itself reported.
            assert_eq!(e.noc_pj, stats.energy.noc_pj, "{} under {p}", shape.name);
        }
    }
}

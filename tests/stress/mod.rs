//! Capacity-stress shapes shared by the capacity and trace tests: a
//! configuration with tiny L1s, L2 banks and store buffers, and a
//! workload that streams stores through it.

use gpu_denovo::mem::CacheGeometry;
use gpu_denovo::sim::kernel::{imm, r, AluOp, KernelBuilder};
use gpu_denovo::types::{ProtocolConfig, WordAddr};
use gpu_denovo::{KernelLaunch, SystemConfig, TbSpec, Workload};

/// A configuration with a 2-set L1, 2-line L2 banks, a 2-entry store
/// buffer and `mshr` MSHRs.
pub fn tiny_cfg(p: ProtocolConfig, mshr: usize) -> SystemConfig {
    let mut cfg = SystemConfig::micro15(p);
    cfg.mshr_entries = mshr;
    // 4 lines x 2 ways = 2 sets: constant eviction pressure.
    cfg.l1_geometry = CacheGeometry {
        size_bytes: 4 * 64,
        ways: 2,
    };
    // Tiny L2 banks too: 2 lines x 2 ways per bank forces LLC
    // evictions and DeNovo registry spill/recall under load.
    cfg.l2.bank_geometry = CacheGeometry {
        size_bytes: 2 * 64,
        ways: 2,
    };
    cfg.sb_entries = 2;
    cfg
}

/// Each TB streams stores over 32 distinct lines, then reads them all
/// back in a second kernel and checks the values in registers; the
/// verifier checks the final memory image. With a 4-line L1 every store
/// chain forces owned-line evictions under DeNovo.
pub fn streaming_ownership() -> Workload {
    const TBS: u32 = 30;
    const LINES: u32 = 32;
    let mut b = KernelBuilder::new();
    // r0 = tb id. base = 64 + tb*LINES*16 words; word i at base + i*16.
    b.alu(1, r(0), AluOp::Mul, imm(LINES * 16));
    b.alu_add(1, r(1), imm(64));
    b.mov(2, imm(0)); // i
    b.label("wr");
    b.alu(3, r(2), AluOp::Mul, imm(16));
    b.alu_add(3, r(3), r(1)); // addr
    b.alu_add(4, r(0), r(2)); // value = tb + i
    b.mov(5, r(3));
    b.st(b.at(5, 0), r(4));
    b.alu_add(2, r(2), imm(1));
    b.alu(6, r(2), AluOp::CmpLt, imm(LINES));
    b.bnz(r(6), "wr");
    b.halt();
    let k1 = b.build();

    let mut c = KernelBuilder::new();
    c.alu(1, r(0), AluOp::Mul, imm(LINES * 16));
    c.alu_add(1, r(1), imm(64));
    c.mov(2, imm(0));
    c.mov(7, imm(0)); // sum
    c.label("rd");
    c.alu(3, r(2), AluOp::Mul, imm(16));
    c.alu_add(3, r(3), r(1));
    c.mov(5, r(3));
    c.ld(4, c.at(5, 0));
    c.alu_add(7, r(7), r(4));
    c.alu_add(2, r(2), imm(1));
    c.alu(6, r(2), AluOp::CmpLt, imm(LINES));
    c.bnz(r(6), "rd");
    // Publish sum at word tb (line-sharing across TBs on purpose).
    c.mov(8, r(0));
    c.st(c.at(8, 0), r(7));
    c.halt();
    let k2 = c.build();

    let tbs: Vec<TbSpec> = (0..TBS).map(|t| TbSpec::with_regs(&[t])).collect();
    Workload {
        name: "stream-own".into(),
        init: Box::new(|_| {}),
        kernels: vec![
            KernelLaunch {
                program: k1,
                tbs: tbs.clone(),
            },
            KernelLaunch { program: k2, tbs },
        ],
        verify: Box::new(move |m| {
            for t in 0..TBS {
                let want: u32 = (0..LINES).map(|i| t + i).sum();
                let got = m.read_word(WordAddr(t as u64));
                if got != want {
                    return Err(format!("tb {t}: sum {got}, want {want}"));
                }
                for i in 0..LINES {
                    let a = 64 + (t * LINES * 16 + i * 16) as u64;
                    let got = m.read_word(WordAddr(a));
                    if got != t + i {
                        return Err(format!("word {a}: {got}, want {}", t + i));
                    }
                }
            }
            Ok(())
        }),
    }
}

//! The traced paths are the same program as the untraced ones.
//!
//! * The bench's own plain Hessenberg and QR loops give factors and `tau`
//!   bitwise equal to `pdgehrd` / `pdgeqrf`.
//! * `TimedTransport` over `MpscTransport::fabric` gives a bitwise-equal FT
//!   result and an identical `ctx.traffic()` to plain `run_spmd`.

use ft_benchsuite::loops::{traced_pdgehrd, traced_pdgeqrf};
use ft_benchsuite::timed::TimedTransport;
use ft_dense::gen::uniform_entry;
use ft_hess::{ft_pdgehrd, ft_pdgeqrf, Encoded, Variant};
use ft_pblas::{pdgehrd, pdgeqrf, Desc, DistMatrix};
use ft_runtime::{run_spmd, run_spmd_with, Ctx, FaultScript, MpscTransport, TrafficLedger};

const N: usize = 64;
const NB: usize = 8;
const GRIDS: [(usize, usize); 2] = [(2, 2), (2, 3)];

type Driver = fn(&Ctx, &mut DistMatrix, &mut [f64]);

/// Each rank's local factor and `tau`, as bits.
fn factor_bits(p: usize, q: usize, seed: u64, driver: Driver) -> Vec<(Vec<u64>, Vec<u64>)> {
    run_spmd(p, q, FaultScript::none(), move |ctx| {
        let mut a = DistMatrix::from_global_fn(&ctx, Desc { m: N, n: N, nb: NB }, |i, j| uniform_entry(seed, i, j));
        let mut tau = vec![0.0; N];
        driver(&ctx, &mut a, &mut tau);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        (bits(a.local().as_slice()), bits(&tau))
    })
}

#[test]
fn own_hessenberg_loop_is_bitwise_pdgehrd() {
    for (p, q) in GRIDS {
        assert_eq!(factor_bits(p, q, 11, traced_pdgehrd), factor_bits(p, q, 11, pdgehrd), "{p}x{q}");
    }
}

#[test]
fn own_qr_loop_is_bitwise_pdgeqrf() {
    for (p, q) in GRIDS {
        assert_eq!(factor_bits(p, q, 12, traced_pdgeqrf), factor_bits(p, q, 12, pdgeqrf), "{p}x{q}");
    }
}

type FtDriver = fn(&Ctx, &mut Encoded, Variant, &mut [f64]) -> Result<ft_hess::FtReport, ft_hess::FtError>;

/// One rank of a fault-free FT solve: encoded local matrix and `tau` as
/// bits, plus the rank's traffic ledger.
fn ft_rank(ctx: &Ctx, seed: u64, driver: FtDriver) -> (Vec<u64>, Vec<u64>, TrafficLedger) {
    let mut enc = Encoded::from_global_fn(ctx, N, NB, |i, j| uniform_entry(seed, i, j));
    let mut tau = vec![0.0; N];
    driver(ctx, &mut enc, Variant::NonDelayed, &mut tau).expect("fault-free run");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    (bits(enc.a.local().as_slice()), bits(&tau), ctx.traffic())
}

#[test]
fn timed_transport_changes_neither_result_nor_traffic() {
    for driver in [ft_pdgehrd as FtDriver, ft_pdgeqrf as FtDriver] {
        for (p, q) in GRIDS {
            let plain = run_spmd(p, q, FaultScript::none(), move |ctx| ft_rank(&ctx, 13, driver));
            let (endpoints, times) = TimedTransport::wrap_fabric(MpscTransport::fabric(p * q));
            let timed = run_spmd_with(p, q, FaultScript::none(), endpoints, move |ctx| ft_rank(&ctx, 13, driver));
            assert_eq!(timed, plain, "{p}x{q}");
            // And the decorator counted exactly what the ledger did.
            for (rank, (t, (_, _, ledger))) in times.iter().zip(&timed).enumerate() {
                assert_eq!((t.msgs(), t.bytes()), (ledger.total_msgs(), ledger.total_bytes()), "{p}x{q} rank {rank}");
                assert!(t.recv_secs() > 0.0 && t.send_secs() > 0.0, "{p}x{q} rank {rank}: nothing was timed");
            }
        }
    }
}

//! Determinism of the cell sweep: `check_cells` fans the 54-cell E6
//! matrix out across worker threads, which must not perturb the order
//! or content of its reports.

use bas_analysis::mc::{check_cells, matrix_cells, ExploreOpts};
use bas_core::platform::linux::UidScheme;
use bas_core::scenario::Platform;

/// Sweep-level parallelism preserves report order and content.
#[test]
fn parallel_cell_sweep_preserves_reports() {
    let cells = matrix_cells(&[Platform::Minix]);
    let opts = ExploreOpts::default();
    let seq = check_cells(&cells, UidScheme::SharedAccount, &opts, 1);
    let par = check_cells(&cells, UidScheme::SharedAccount, &opts, 4);
    assert_eq!(par.len(), seq.len());
    for (p, s) in par.iter().zip(&seq) {
        assert_eq!(
            (p.platform, p.attacker, p.attack),
            (s.platform, s.attacker, s.attack)
        );
        assert_eq!(p.mc, s.mc);
        assert_eq!(p.stats, s.stats);
        assert_eq!(p.reached, s.reached);
    }
}

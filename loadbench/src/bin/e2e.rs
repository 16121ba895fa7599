//! The end-to-end run: what a client of the router sees, tracing off.
//!
//! `e2e --workload W --seed N --seconds S --trace 0 [--routes N]`

use clue_loadbench::inputs;
use clue_loadbench::report::Report;
use clue_loadbench::run::{self, SETUP_REPS};

fn main() {
    run::main_with(
        |args| {
            let inputs = inputs::generate(args.workload, args.seed, args.routes, args.window());
            let mut taps = vec![(); args.workload.lookup_conns()];
            let measured = run::measure(args, &inputs, SETUP_REPS, &mut taps)?;
            let mut report = Report::default();
            run::account(&inputs, &measured, &mut report);
            run::end_to_end(&measured, &mut report);
            Ok(report)
        },
        "e2e",
    )
}

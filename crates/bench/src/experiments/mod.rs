//! One module per reproduced figure/table; binaries in `src/bin/` are thin
//! wrappers and `all_experiments` runs the lot. See DESIGN.md §8 for the
//! experiment index and EXPERIMENTS.md for recorded results.

pub mod fig02;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig10;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod obs_overhead;
pub mod tab_delay;

/// Runs every experiment in figure order.
pub fn run_all() {
    obs_overhead::run();
    tab_delay::run();
    fig02::run();
    fig06::run();
    fig07::run();
    fig08::run();
    fig10::run();
    fig12::run();
    fig13::run();
    fig14::run();
    fig15::run();
    fig16::run();
    fig17::run();
}

//! Command-line interface to the `asynoc` simulator.
//!
//! The binary is called `asynoc`:
//!
//! ```text
//! asynoc run      --arch OptHybridSpeculative --benchmark Multicast10 --rate 0.4
//! asynoc saturate --arch Baseline --benchmark Shuffle --quick
//! asynoc sweep    --arch OptAllSpeculative --benchmark Uniform-random \
//!                 --from 0.1 --to 1.4 --steps 8
//! asynoc metrics  --arch BasicHybridSpeculative --benchmark Multicast10 \
//!                 --rate 0.3 --trace-out trace.ndjson
//! asynoc analyze  --trace-in trace.ndjson --top 5 --heatmap
//! asynoc run      --spec-map 'levels:sp,ns,ns;node:0.1.0=ons' \
//!                 --benchmark Multicast5 --rate 0.2
//! asynoc explore  --jobs 4 --report-out explore.json
//! asynoc info     --size 16
//! ```
//!
//! Everything the CLI does is a thin veneer over the [`asynoc`] public API,
//! so scripted experiments can migrate to Rust code without surprises.

pub mod analyze;
pub mod args;
pub mod commands;
pub mod explore;
pub mod faults;
pub mod metrics;
pub mod profile;
pub(crate) mod stream;
pub(crate) mod substrate;
pub mod watch;

pub use args::{parse, Command, ParseCliError};
pub use commands::execute;

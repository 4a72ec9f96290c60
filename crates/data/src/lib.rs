//! # fairprep-data
//!
//! The tabular data substrate of the FairPrep workspace: typed columns with
//! first-class missing values, a minimal column-oriented data frame, the
//! [`BinaryLabelDataset`](dataset::BinaryLabelDataset) abstraction (protected
//! groups, binary labels, instance weights), seeded splitting and resampling,
//! CSV ingestion, and exploratory statistics.
//!
//! This crate replaces the pandas + AIF360-dataset layer the original Python
//! FairPrep builds on. It is deliberately scoped to exactly the operations
//! the FairPrep lifecycle needs.
//!
//! ## Example
//!
//! ```
//! use fairprep_data::prelude::*;
//!
//! let frame = DataFrame::new()
//!     .with_column("score", Column::from_f64([700.0, 520.0, 640.0, 480.0]))
//!     .unwrap()
//!     .with_column("sex", Column::from_strs(["m", "f", "m", "f"]))
//!     .unwrap()
//!     .with_column("risk", Column::from_strs(["good", "bad", "good", "bad"]))
//!     .unwrap();
//!
//! let schema = Schema::new()
//!     .numeric_feature("score")
//!     .metadata("sex", ColumnKind::Categorical)
//!     .label("risk");
//!
//! let dataset = BinaryLabelDataset::new(
//!     frame,
//!     schema,
//!     ProtectedAttribute::categorical("sex", &["m"]),
//!     "good",
//! )
//! .unwrap();
//!
//! assert_eq!(dataset.labels(), &[1.0, 0.0, 1.0, 0.0]);
//! assert_eq!(dataset.base_rate(Some(true)), 1.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod column;
pub mod csv;
pub mod dataset;
pub mod error;
pub mod frame;
pub mod parallel;
pub mod profile;
pub mod provenance;
pub mod resample;
pub mod rng;
pub mod schema;
pub mod split;
pub mod stats;

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use crate::column::{Column, ColumnKind, OwnedValue, Value};
    pub use crate::dataset::BinaryLabelDataset;
    pub use crate::error::{Error, Result};
    pub use crate::frame::{DataFrame, FrameBuilder};
    pub use crate::parallel::{available_threads, parallel_map, split_budget};
    pub use crate::provenance::Provenance;
    pub use crate::resample::{Bootstrap, NoResampling, OversampleMinorityClass, Resampler};
    pub use crate::schema::{GroupSpec, ProtectedAttribute, Role, Schema};
    pub use crate::split::{
        stratified_train_val_test_split, train_val_test_split, SplitSpec, TrainValTest,
    };
}

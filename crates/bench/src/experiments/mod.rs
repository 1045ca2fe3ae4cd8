//! One module per table/figure of the paper's evaluation.
//!
//! Every experiment takes an [`crate::ExpConfig`] (or a prepared
//! [`crate::Workload`]) and returns its formatted report; the `reproduce`
//! binary prints them, and EXPERIMENTS.md records a captured run against
//! the paper's numbers.

pub mod ablation;
pub mod cascade;
pub mod chaos;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig6;
pub mod fig7;
pub mod fig9;
pub mod perfetto;
pub mod postmortem;
pub mod profile;
pub mod table1;
pub mod table2_3;
pub mod table4;
pub mod table5;

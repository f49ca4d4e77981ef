//! The benchmark's own side of every measurement: a seeded input
//! generator, an exact topology oracle, checkers for the program's outputs
//! and a closed-loop HTTP client. It depends on nothing from the program
//! under test, so no change to the program can change what is generated
//! or what counts as a right answer.

pub mod calib;
pub mod check;
pub mod gen;
pub mod geom;
pub mod json;
pub mod load;
pub mod oracle;
pub mod rng;

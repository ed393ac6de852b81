//! # cogsys-sim — cycle-level model of the CogSys accelerator and its baselines
//!
//! The paper evaluates CogSys with "a cycle-accurate simulator" for performance plus RTL
//! synthesis for area/power (Sec. VII-A). This crate rebuilds that simulator:
//!
//! * [`pe`] — the reconfigurable neuro/symbolic processing element (nsPE) with its four
//!   registers and three operation modes (load / GEMM / circular convolution), stepped
//!   cycle by cycle and producing bit-identical results to the functional VSA kernels.
//! * [`dataflow`] — the bubble-streaming (BS) dataflow for circular convolution, the
//!   output of Sec. V-C's cycle analysis (`4d − 1`, `3M + d − 1`), the systolic GEMM
//!   dataflow, and the TPU-style GEMV lowering of circular convolution used as baseline.
//! * [`array`](mod@array) — the scalable compute array (16 cells × 32×32 PEs by default) with
//!   scale-up / scale-out composition, cell-wise (ScWP) and column-wise (CWP)
//!   parallelism.
//! * [`simd`] — the custom SIMD unit for element-wise / reduction operations.
//! * [`memory`] — double-buffered SRAMs and the DRAM bandwidth model.
//! * [`kernel`] — kernel descriptors (GEMM, Conv2d, circular-convolution batches,
//!   element-wise ops) with FLOP and byte accounting shared with the scheduler.
//! * [`roofline`] — arithmetic-intensity / attainable-performance analysis (Fig. 5 and
//!   Fig. 11c).
//! * [`devices`] — analytical models of the CPU/GPU/edge-SoC and ML-accelerator
//!   baselines (Tab. VI), calibrated with the kernel-efficiency measurements of Tab. II.
//! * [`energy`] — area, power and energy models per precision (Tab. IX, Fig. 14).
//!
//! # Example: circular convolution on the nsPE array vs. a TPU-like systolic cell
//!
//! ```rust
//! use cogsys_sim::dataflow::{bubble_streaming_cycles, tpu_gemv_circconv_cycles};
//!
//! // One 1024-dimensional circular convolution on a 1024-PE column:
//! let cogsys = bubble_streaming_cycles(1024, 1024);
//! let tpu = tpu_gemv_circconv_cycles(1024, 128, 128, 1);
//! assert!(tpu > cogsys); // the BS dataflow wins
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod config;
pub mod dataflow;
pub mod devices;
pub mod energy;
pub mod error;
pub mod kernel;
pub mod memory;
pub mod pe;
pub mod roofline;
pub mod simd;

pub use array::{ArrayPartition, ComputeArray, ExecutionRecord};
pub use config::{AcceleratorConfig, ArrayGeometry};
pub use devices::{Device, DeviceKind, DeviceModel};
pub use energy::{AreaBreakdown, EnergyModel, PowerBreakdown};
pub use error::SimError;
pub use kernel::{Kernel, KernelClass, KernelCost};
pub use roofline::{Roofline, RooflinePoint};

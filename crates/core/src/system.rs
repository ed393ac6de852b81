//! The top-level CogSys system: algorithm + accelerator + scheduler.

use cogsys_datasets::{DatasetKind, ProblemGenerator};
use cogsys_scheduler::{AdSchConfig, AdSchScheduler, Schedule, Scheduler, SequentialScheduler};
use cogsys_sim::{AcceleratorConfig, ComputeArray, DeviceKind, DeviceModel, EnergyModel, SimError};
use cogsys_vsa::{BackendKind, Precision};
use cogsys_workloads::{
    NeurosymbolicSolver, SolverConfig, SolverReport, TaskSize, WorkloadKind, WorkloadSpec,
};
use serde::{Deserialize, Serialize};

/// Hardware-ablation variants used by Fig. 19 and Tab. X.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AblationVariant {
    /// The full CogSys design.
    Full,
    /// Without the adaptive scheduler (sequential whole-array execution).
    WithoutAdSch,
    /// Without the scale-out capability (and without adSCH).
    WithoutScaleOut,
    /// Without the reconfigurable nsPE (symbolic kernels fall back to GEMV lowering),
    /// without scale-out, and without adSCH — essentially a plain systolic array.
    WithoutNsPe,
}

impl AblationVariant {
    /// All variants in Fig. 19 order (progressively removing techniques).
    pub const ALL: [AblationVariant; 4] = [
        AblationVariant::Full,
        AblationVariant::WithoutAdSch,
        AblationVariant::WithoutScaleOut,
        AblationVariant::WithoutNsPe,
    ];
}

/// Configuration of a [`CogSysSystem`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CogSysConfig {
    /// Accelerator (hardware) configuration.
    pub accelerator: AcceleratorConfig,
    /// Scheduler configuration.
    pub scheduler: AdSchConfig,
    /// Functional solver configuration (dimensionality, factorizer, noise, precision).
    pub solver: SolverConfig,
    /// Which workload's kernel structure is used for performance estimation.
    pub workload: WorkloadKind,
    /// RPM task size.
    pub task_size: TaskSize,
    /// How many reasoning tasks are batched together (adSCH interleaves across them).
    pub batch_tasks: usize,
}

impl Default for CogSysConfig {
    fn default() -> Self {
        Self {
            accelerator: AcceleratorConfig::cogsys(),
            scheduler: AdSchConfig::default(),
            solver: SolverConfig::default(),
            workload: WorkloadKind::Nvsa,
            task_size: TaskSize::Grid3x3,
            batch_tasks: 4,
        }
    }
}

impl CogSysConfig {
    /// Applies one of the Fig. 19 hardware ablations.
    pub fn with_ablation(mut self, variant: AblationVariant) -> Self {
        match variant {
            AblationVariant::Full => {}
            AblationVariant::WithoutAdSch => {}
            AblationVariant::WithoutScaleOut => {
                self.accelerator.scale_out_enabled = false;
            }
            AblationVariant::WithoutNsPe => {
                self.accelerator.scale_out_enabled = false;
                self.accelerator.reconfigurable_pe = false;
            }
        }
        self
    }

    /// Sets the datapath and solver precision together (Tab. VIII/IX sweeps).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.accelerator = self.accelerator.with_precision(precision);
        self.solver = self.solver.with_precision(precision);
        self
    }

    /// Selects the batched VSA execution backend for the functional pipeline
    /// (encoding, factorization, answer scoring), end to end.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.solver = self.solver.with_backend(backend);
        self
    }

    /// The configured execution backend.
    pub fn backend(&self) -> BackendKind {
        self.solver.backend
    }
}

/// Result of an end-to-end reasoning run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReasoningOutcome {
    /// Functional accuracy report (reasoning + factorization accuracy).
    pub report: SolverReport,
    /// Accelerator latency per reasoning task, in seconds.
    pub seconds_per_task: f64,
    /// Accelerator energy per reasoning task, in joules.
    pub joules_per_task: f64,
    /// Average compute-array utilisation of the schedule.
    pub utilization: f64,
}

/// The end-to-end CogSys system.
#[derive(Debug, Clone)]
pub struct CogSysSystem {
    config: CogSysConfig,
}

impl CogSysSystem {
    /// Creates a system from a configuration.
    pub fn new(config: CogSysConfig) -> Self {
        Self { config }
    }

    /// The system's configuration.
    pub fn config(&self) -> &CogSysConfig {
        &self.config
    }

    /// The workload specification used for performance estimation.
    pub fn workload_spec(&self) -> WorkloadSpec {
        WorkloadSpec::with_task_size(self.config.workload, self.config.task_size)
    }

    /// Builds the simulated compute array.
    ///
    /// # Errors
    /// Returns [`SimError`] if the accelerator configuration is invalid.
    pub fn compute_array(&self) -> Result<ComputeArray, SimError> {
        ComputeArray::new(self.config.accelerator.clone())
    }

    /// Schedules `batch_tasks` reasoning tasks of the configured workload on the
    /// accelerator, with or without the adaptive scheduler.
    ///
    /// # Errors
    /// Returns [`SimError`] for invalid configurations (scheduler errors over valid
    /// generated graphs cannot occur).
    pub fn schedule_batch(&self, use_adsch: bool) -> Result<Schedule, SimError> {
        let array = self.compute_array()?;
        let graph = self
            .workload_spec()
            .operation_graph(self.config.batch_tasks);
        let schedule = if use_adsch {
            AdSchScheduler::new(self.config.scheduler).schedule(&array, &graph)
        } else {
            SequentialScheduler.schedule(&array, &graph)
        };
        Ok(schedule.expect("workload operation graphs are valid by construction"))
    }

    /// Latency of one reasoning task on the CogSys accelerator, in seconds.
    ///
    /// # Errors
    /// Returns [`SimError`] for invalid accelerator configurations.
    pub fn seconds_per_task(&self) -> Result<f64, SimError> {
        let schedule = self.schedule_batch(true)?;
        Ok(
            schedule.makespan_seconds(self.config.accelerator.frequency_ghz)
                / self.config.batch_tasks.max(1) as f64,
        )
    }

    /// Latency of one reasoning task of the configured workload on a baseline device,
    /// in seconds (kernels run sequentially — the behaviour profiled in Sec. III).
    pub fn device_seconds_per_task(&self, device: DeviceKind) -> f64 {
        let spec = self.workload_spec();
        let model = DeviceModel::new(device);
        model.sequence_seconds(&spec.task_kernels(), Precision::Fp32)
    }

    /// Energy per reasoning task on a baseline device, in joules.
    pub fn device_joules_per_task(&self, device: DeviceKind) -> f64 {
        DeviceModel::new(device).energy_joules(self.device_seconds_per_task(device))
    }

    /// Runs the full pipeline: functional accuracy over `problems` synthetic problems of
    /// `dataset`, plus accelerator latency/energy/utilisation for the same workload.
    ///
    /// The functional solver consumes the problem stream in `batch_tasks`-sized
    /// chunks through the cross-problem batched engine with one reused
    /// [`cogsys_workloads::SolverScratch`] — `batch_tasks` now means the same thing
    /// in the functional model as in the performance model (adSCH interleaves the
    /// same number of tasks). The batched engine's per-problem rng draws make the
    /// result independent of the chunk size, so changing `batch_tasks` changes
    /// throughput, never answers.
    ///
    /// # Errors
    /// Returns [`SimError`] for invalid accelerator configurations; solver errors
    /// ([`cogsys_workloads::SolveError`]) cannot occur for well-formed
    /// configurations and generated problems, and are reported as accuracy 0 rather
    /// than panicking.
    pub fn run_reasoning(
        &self,
        dataset: DatasetKind,
        problems: usize,
        seed: u64,
    ) -> Result<ReasoningOutcome, SimError> {
        // Functional accuracy.
        let mut rng = cogsys_vsa::rng(seed);
        let solver = NeurosymbolicSolver::new(self.config.solver.clone(), &mut rng);
        let batch = ProblemGenerator::new(dataset).generate_batch(problems, &mut rng);
        let mut scratch = cogsys_workloads::SolverScratch::default();
        let report = batch
            .chunks(self.config.batch_tasks.max(1))
            .try_fold(SolverReport::default(), |mut total, chunk| {
                total.merge(&solver.solve_batch_with(chunk, &mut rng, &mut scratch)?);
                Ok::<_, cogsys_workloads::SolveError>(total)
            })
            .unwrap_or_default();

        // Performance.
        let schedule = self.schedule_batch(true)?;
        let seconds = schedule.makespan_seconds(self.config.accelerator.frequency_ghz)
            / self.config.batch_tasks.max(1) as f64;
        let energy_model = EnergyModel::new(self.config.accelerator.clone());
        let utilization = schedule.array_utilization();
        let joules = energy_model.energy_joules(schedule.makespan_cycles, utilization)
            / self.config.batch_tasks.max(1) as f64;

        Ok(ReasoningOutcome {
            report,
            seconds_per_task: seconds,
            joules_per_task: joules,
            utilization,
        })
    }

    /// Normalised runtime of a hardware-ablation variant relative to the full design
    /// (Fig. 19): `1.0` means "as fast as full CogSys", larger is slower.
    ///
    /// # Errors
    /// Returns [`SimError`] for invalid accelerator configurations.
    pub fn ablation_relative_runtime(&self, variant: AblationVariant) -> Result<f64, SimError> {
        let full = CogSysSystem::new(self.config.clone().with_ablation(AblationVariant::Full));
        let ablated = CogSysSystem::new(self.config.clone().with_ablation(variant));
        let full_cycles = full.schedule_batch(true)?.makespan_cycles;
        let ablated_cycles = match variant {
            AblationVariant::Full => ablated.schedule_batch(true)?.makespan_cycles,
            // Every ablation level also removes the adaptive scheduler, matching the
            // cumulative structure of Fig. 19.
            _ => ablated.schedule_batch(false)?.makespan_cycles,
        };
        Ok(ablated_cycles as f64 / full_cycles.max(1) as f64)
    }
}

impl Default for CogSysSystem {
    fn default() -> Self {
        Self::new(CogSysConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_system_builds_and_schedules() {
        let system = CogSysSystem::default();
        assert_eq!(system.config().workload, WorkloadKind::Nvsa);
        let schedule = system.schedule_batch(true).unwrap();
        assert!(schedule.makespan_cycles > 0);
        assert!(schedule.array_utilization() > 0.0);
        let spec = system.workload_spec();
        assert_eq!(spec.kind, WorkloadKind::Nvsa);
    }

    #[test]
    fn cogsys_meets_real_time_bound() {
        // The headline claim: real-time abduction reasoning at < 0.3 s per task.
        let system = CogSysSystem::default();
        let seconds = system.seconds_per_task().unwrap();
        assert!(seconds < 0.3, "seconds per task {seconds}");
        assert!(seconds > 0.0);
    }

    #[test]
    fn cogsys_is_faster_than_every_baseline_device() {
        // Fig. 15 ordering: TX2 slowest, then NX, Xeon, RTX, CogSys fastest.
        let system = CogSysSystem::default();
        let cogsys = system.seconds_per_task().unwrap();
        let rtx = system.device_seconds_per_task(DeviceKind::RtxGpu);
        let xeon = system.device_seconds_per_task(DeviceKind::XeonCpu);
        let nx = system.device_seconds_per_task(DeviceKind::XavierNx);
        let tx2 = system.device_seconds_per_task(DeviceKind::JetsonTx2);
        assert!(cogsys < rtx, "cogsys {cogsys} vs rtx {rtx}");
        assert!(rtx < xeon);
        assert!(xeon < nx);
        assert!(nx < tx2);
        // Speedups are in a plausible band (Fig. 15 reports 4.6x over RTX and ~91x over
        // TX2; the analytical device models should land within an order of magnitude).
        let rtx_speedup = rtx / cogsys;
        let tx2_speedup = tx2 / cogsys;
        assert!(rtx_speedup > 1.5 && rtx_speedup < 100.0, "{rtx_speedup}");
        assert!(tx2_speedup > 10.0 && tx2_speedup < 2000.0, "{tx2_speedup}");
    }

    #[test]
    fn cogsys_energy_beats_gpu_by_orders_of_magnitude() {
        // Fig. 16: two orders of magnitude better energy than GPUs/CPUs.
        let system = CogSysSystem::default();
        let outcome = system.run_reasoning(DatasetKind::Raven, 1, 3).unwrap();
        let gpu_energy = system.device_joules_per_task(DeviceKind::RtxGpu);
        assert!(
            gpu_energy / outcome.joules_per_task > 50.0,
            "gpu {} vs cogsys {}",
            gpu_energy,
            outcome.joules_per_task
        );
    }

    #[test]
    fn ablations_are_progressively_slower() {
        // Fig. 19: removing adSCH, then the scalable array, then the reconfigurable PE
        // makes the design progressively slower.
        let system = CogSysSystem::default();
        let full = system
            .ablation_relative_runtime(AblationVariant::Full)
            .unwrap();
        let no_sched = system
            .ablation_relative_runtime(AblationVariant::WithoutAdSch)
            .unwrap();
        let no_so = system
            .ablation_relative_runtime(AblationVariant::WithoutScaleOut)
            .unwrap();
        let no_nspe = system
            .ablation_relative_runtime(AblationVariant::WithoutNsPe)
            .unwrap();
        assert!((full - 1.0).abs() < 1e-9);
        assert!(no_sched > full);
        assert!(no_so >= no_sched * 0.99);
        assert!(no_nspe > no_so, "no_nspe {no_nspe} vs no_so {no_so}");
        assert_eq!(AblationVariant::ALL.len(), 4);
    }

    #[test]
    fn precision_sweep_keeps_configuration_consistent() {
        let config = CogSysConfig::default().with_precision(Precision::Fp8);
        assert_eq!(config.accelerator.precision, Precision::Fp8);
        assert_eq!(config.solver.factorizer.precision, Precision::Fp8);
        let system = CogSysSystem::new(config);
        assert!(system.seconds_per_task().unwrap() > 0.0);
    }

    #[test]
    fn backend_selection_threads_through_to_the_solver() {
        let config = CogSysConfig::default().with_backend(BackendKind::Reference);
        assert_eq!(config.backend(), BackendKind::Reference);
        assert_eq!(config.solver.backend, BackendKind::Reference);
        assert_eq!(config.solver.factorizer.backend, BackendKind::Reference);
        // An end-to-end run on the reference backend still works.
        let system = CogSysSystem::new(config);
        let outcome = system.run_reasoning(DatasetKind::Raven, 1, 9).unwrap();
        assert_eq!(outcome.report.problems, 1);
    }

    #[test]
    fn batch_tasks_changes_throughput_not_answers() {
        // run_reasoning slices the problem stream into batch_tasks-sized chunks for
        // the cross-problem batched solver; the chunk size must never change the
        // functional outcome (the batched engine draws rng per problem).
        let narrow = CogSysSystem::new(CogSysConfig {
            batch_tasks: 2,
            ..CogSysConfig::default()
        });
        let wide = CogSysSystem::new(CogSysConfig {
            batch_tasks: 64,
            ..CogSysConfig::default()
        });
        let a = narrow.run_reasoning(DatasetKind::Raven, 6, 77).unwrap();
        let b = wide.run_reasoning(DatasetKind::Raven, 6, 77).unwrap();
        assert_eq!(a.report, b.report);
        // The performance model still sees the different batch size.
        assert!(a.seconds_per_task > 0.0 && b.seconds_per_task > 0.0);
    }

    #[test]
    fn packed_backend_runs_end_to_end() {
        // BackendKind::Packed through the whole stack: config → solver → factorizer,
        // with the XOR/popcount kernels doing the symbolic work.
        let config = CogSysConfig::default().with_backend(BackendKind::Packed);
        assert_eq!(config.backend(), BackendKind::Packed);
        assert_eq!(config.solver.factorizer.backend, BackendKind::Packed);
        let system = CogSysSystem::new(config);
        let outcome = system.run_reasoning(DatasetKind::Raven, 2, 9).unwrap();
        assert_eq!(outcome.report.problems, 2);
        assert!(outcome.report.factorization_accuracy() >= 0.8);
    }
}

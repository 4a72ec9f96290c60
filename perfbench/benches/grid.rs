//! The configurations each workload runs, the data they run on, and the
//! recorded per-configuration result digests.

use std::path::Path;

use fairprep_cli::build::configure;
use fairprep_core::experiment::Experiment;
use fairprep_core::learners::{DecisionTreeLearner, Learner, LogisticRegressionLearner};
use fairprep_data::column::ColumnKind;
use fairprep_data::csv::{read_csv, write_csv, DEFAULT_MISSING_TOKENS};
use fairprep_data::dataset::BinaryLabelDataset;
use fairprep_data::error::{Error, Result};
use fairprep_data::rng::derive_seed;
use fairprep_data::schema::{ProtectedAttribute, Schema};
use fairprep_datasets::{
    generate_adult, generate_german, AdultProtected, ADULT_FULL_SIZE, GERMAN_FULL_SIZE,
};
use fairprep_fairness::metrics::MetricsReport;
use fairprep_fairness::postprocess::{CalibratedEqOdds, Postprocessor, RejectOptionClassification};
use fairprep_fairness::preprocess::{
    DisparateImpactRemover, NoIntervention, Preprocessor, Reweighing,
};
use fairprep_impute::{CompleteCaseAnalysis, MissingValueHandler, ModeImputer, ModelBasedImputer};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Model {
    Lr,
    Dt,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Impute {
    CompleteCase,
    Mode,
    ModelBased,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pre {
    None,
    DiRemover(f64),
    Reweighing,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Post {
    None,
    RejectOption,
    CalEqOdds,
}

/// One lifecycle configuration: a single candidate learner plus one
/// component per intervention slot.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub model: Model,
    pub tuned: bool,
    pub impute: Impute,
    pub pre: Pre,
    pub post: Post,
}

impl Config {
    pub fn name(&self) -> String {
        let model = match (self.model, self.tuned) {
            (Model::Lr, false) => "lr",
            (Model::Lr, true) => "lr-tuned",
            (Model::Dt, false) => "dt",
            (Model::Dt, true) => "dt-tuned",
        };
        let impute = match self.impute {
            Impute::CompleteCase => "complete",
            Impute::Mode => "mode",
            Impute::ModelBased => "model",
        };
        let intervention = match (self.pre, self.post) {
            (Pre::DiRemover(level), _) => format!("di{level:.1}"),
            (Pre::Reweighing, _) => "reweighing".to_string(),
            (Pre::None, Post::RejectOption) => "reject_option".to_string(),
            (Pre::None, Post::CalEqOdds) => "cal_eq_odds".to_string(),
            (Pre::None, Post::None) => "none".to_string(),
        };
        let post = match (self.pre, self.post) {
            (Pre::None, _) | (_, Post::None) => "",
            (_, Post::RejectOption) => "+reject_option",
            (_, Post::CalEqOdds) => "+cal_eq_odds",
        };
        format!("{model}/{impute}/{intervention}{post}")
    }

    pub fn learner(&self) -> Box<dyn Learner> {
        match self.model {
            Model::Lr => Box::new(LogisticRegressionLearner { tuned: self.tuned }),
            Model::Dt => Box::new(DecisionTreeLearner { tuned: self.tuned }),
        }
    }

    pub fn missing_handler(&self) -> Box<dyn MissingValueHandler> {
        match self.impute {
            Impute::CompleteCase => Box::new(CompleteCaseAnalysis),
            Impute::Mode => Box::new(ModeImputer),
            Impute::ModelBased => Box::new(ModelBasedImputer::default()),
        }
    }

    pub fn preprocessor(&self) -> Box<dyn Preprocessor> {
        match self.pre {
            Pre::None => Box::new(NoIntervention),
            Pre::DiRemover(level) => Box::new(DisparateImpactRemover::new(level)),
            Pre::Reweighing => Box::new(Reweighing),
        }
    }

    pub fn postprocessor(&self) -> Option<Box<dyn Postprocessor>> {
        match self.post {
            Post::None => None,
            Post::RejectOption => Some(Box::new(RejectOptionClassification::default())),
            Post::CalEqOdds => Some(Box::new(CalibratedEqOdds::default())),
        }
    }

    /// The component names `fairprep run` takes for this configuration.
    fn cli_names(&self) -> [String; 4] {
        let learner = match (self.model, self.tuned) {
            (Model::Lr, false) => "lr",
            (Model::Lr, true) => "lr-tuned",
            (Model::Dt, false) => "dt",
            (Model::Dt, true) => "dt-tuned",
        };
        let missing = match self.impute {
            Impute::CompleteCase => "complete-case",
            Impute::Mode => "mode",
            Impute::ModelBased => "model-based",
        };
        let pre = match self.pre {
            Pre::None => "none".to_string(),
            Pre::DiRemover(level) => format!("di-remover-{level:.1}"),
            Pre::Reweighing => "reweighing".to_string(),
        };
        let post = match self.post {
            Post::None => "none",
            Post::RejectOption => "reject-option",
            Post::CalEqOdds => "cal-eq-odds",
        };
        [
            learner.to_string(),
            missing.to_string(),
            pre,
            post.to_string(),
        ]
    }

    /// The experiment this configuration runs, assembled from its
    /// component names the way the command line assembles it.
    pub fn experiment(
        &self,
        name: &str,
        data: BinaryLabelDataset,
        seed: u64,
        threads: usize,
    ) -> Result<Experiment> {
        let [learner, missing, pre, post] = self.cli_names();
        let builder = Experiment::builder(name, data).seed(seed).threads(threads);
        configure(builder, &learner, &missing, &pre, &post, "standard").map_err(|message| {
            Error::InvalidParameter {
                name: "configuration",
                message,
            }
        })
    }
}

/// Fig. 2: {LR, DT} x {untuned, tuned} x six interventions on complete
/// data.
pub fn fig2_grid() -> Vec<Config> {
    let interventions = [
        (Pre::None, Post::None),
        (Pre::DiRemover(0.5), Post::None),
        (Pre::DiRemover(1.0), Post::None),
        (Pre::Reweighing, Post::None),
        (Pre::None, Post::RejectOption),
        (Pre::None, Post::CalEqOdds),
    ];
    let mut grid = Vec::new();
    for model in [Model::Lr, Model::Dt] {
        for tuned in [false, true] {
            for (pre, post) in interventions {
                grid.push(Config {
                    model,
                    tuned,
                    impute: Impute::CompleteCase,
                    pre,
                    post,
                });
            }
        }
    }
    grid
}

/// Fig. 4: {LR, DT} untuned x {mode, model-based} x {none, reweighing,
/// DI-remover 1.0}, costliest first so that two ops in flight finish a
/// pass together.
pub fn fig4_grid() -> Vec<Config> {
    let mut grid = Vec::new();
    for impute in [Impute::ModelBased, Impute::Mode] {
        for model in [Model::Dt, Model::Lr] {
            for pre in [Pre::None, Pre::Reweighing, Pre::DiRemover(1.0)] {
                grid.push(Config {
                    model,
                    tuned: false,
                    impute,
                    pre,
                    post: Post::None,
                });
            }
        }
    }
    grid
}

/// The served chain: mode imputer, DI-remover 1.0, standard featurizer,
/// untuned LR, reject-option.
pub fn serve_chain() -> Config {
    Config {
        model: Model::Lr,
        tuned: false,
        impute: Impute::Mode,
        pre: Pre::DiRemover(1.0),
        post: Post::RejectOption,
    }
}

/// Master seed of every experiment in a run.
pub fn experiment_seed(workload_seed: u64) -> u64 {
    derive_seed(workload_seed, "perfbench/experiment")
}

fn data_seed(workload_seed: u64) -> u64 {
    derive_seed(workload_seed, "perfbench/data")
}

pub fn german(workload_seed: u64) -> Result<BinaryLabelDataset> {
    generate_german(GERMAN_FULL_SIZE, data_seed(workload_seed))
}

pub fn adult(workload_seed: u64) -> Result<BinaryLabelDataset> {
    generate_adult(
        ADULT_FULL_SIZE,
        data_seed(workload_seed),
        AdultProtected::Race,
    )
}

/// What `read_csv` needs to turn a CSV file back into a dataset.
#[derive(Clone)]
pub struct CsvContract {
    kinds: Vec<(String, ColumnKind)>,
    schema: Schema,
    protected: ProtectedAttribute,
    favorable: String,
}

impl CsvContract {
    pub fn of(data: &BinaryLabelDataset) -> CsvContract {
        let frame = data.frame();
        let kinds = frame
            .column_names()
            .iter()
            .filter_map(|name| Some((name.clone(), frame.column(name).ok()?.kind())))
            .collect();
        CsvContract {
            kinds,
            schema: data.schema().clone(),
            protected: data.protected().clone(),
            favorable: data.favorable_label().to_string(),
        }
    }

    /// Ingests `path` through `read_csv` and the dataset constructor.
    pub fn read(&self, path: &Path) -> Result<BinaryLabelDataset> {
        let file = std::fs::File::open(path)
            .map_err(|e| Error::Io(format!("opening {}: {e}", path.display())))?;
        let kinds: Vec<(&str, ColumnKind)> =
            self.kinds.iter().map(|(n, k)| (n.as_str(), *k)).collect();
        let frame = read_csv(
            std::io::BufReader::new(file),
            &kinds,
            DEFAULT_MISSING_TOKENS,
        )?;
        BinaryLabelDataset::new(
            frame,
            self.schema.clone(),
            self.protected.clone(),
            &self.favorable,
        )
    }
}

pub fn write_csv_file(data: &BinaryLabelDataset, path: &Path) -> Result<()> {
    let file = std::fs::File::create(path)
        .map_err(|e| Error::Io(format!("creating {}: {e}", path.display())))?;
    let mut writer = std::io::BufWriter::new(file);
    write_csv(data.frame(), &mut writer)?;
    std::io::Write::flush(&mut writer).map_err(|e| Error::Io(e.to_string()))
}

/// Bit-exact digest of a metrics report.
pub fn digest(report: &MetricsReport) -> String {
    let metrics: Vec<(String, f64)> = report.to_map().into_iter().collect();
    fairprep_trace::manifest::metric_digest(&metrics)
}

/// Test-report digests recorded for some workload seeds, one
/// `seed<TAB>config<TAB>digest` line each.
pub fn recorded_digests(workload: &str, seed: u64) -> Vec<(String, String)> {
    let table = match workload {
        "fig2_german" => include_str!("../expected/fig2_german.tsv"),
        "fig4_adult" => include_str!("../expected/fig4_adult.tsv"),
        _ => "",
    };
    table
        .lines()
        .filter_map(|line| {
            let mut fields = line.split('\t');
            let s: u64 = fields.next()?.parse().ok()?;
            let config = fields.next()?;
            let digest = fields.next()?;
            (s == seed).then(|| (config.to_string(), digest.to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_have_the_paper_shape() {
        let fig2 = fig2_grid();
        assert_eq!(fig2.len(), 24);
        assert_eq!(fig4_grid().len(), 12);
        let mut names: Vec<String> = fig2.iter().map(Config::name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 24, "configuration names are unique");
        assert_eq!(serve_chain().name(), "lr/mode/di1.0+reject_option");
    }
}

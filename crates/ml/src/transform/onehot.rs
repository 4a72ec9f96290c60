//! One-hot encoding of categorical features, robust to unseen categories.
//!
//! FairPrep makes the AIF360 dataset abstraction "more flexible by allowing
//! operations like one-hot encoding on different versions by adding feature
//! dimensions for unseen categorical values" (§4): the encoder reserves a
//! dedicated indicator slot for categories that were not present in the
//! training data, so validation/test rows never crash the pipeline and
//! never silently alias a training category.

use fairprep_data::column::Column;
use fairprep_data::error::{Error, Result};
use fairprep_trace::json::Value;

use crate::sealing;

/// A one-hot encoder fitted on the training values of one categorical
/// feature.
#[derive(Debug, Clone, PartialEq)]
pub struct OneHotEncoder {
    categories: Vec<String>,
}

impl OneHotEncoder {
    /// Fits the encoder on the *training* column: records the distinct
    /// observed categories (missing values are ignored during fitting;
    /// impute before featurizing).
    // audit: allow(missing-guard-fit, reason = "fits on a bare Column handed down by Featurizer::fit, which guards provenance before dispatching here")
    pub fn fit(train_column: &Column) -> Result<OneHotEncoder> {
        let cat = train_column.as_categorical()?;
        let mut seen = vec![false; cat.categories().len()];
        for code in cat.codes().iter().flatten() {
            seen[*code as usize] = true;
        }
        let categories: Vec<String> = cat
            .categories()
            .iter()
            .zip(&seen)
            .filter(|(_, &s)| s)
            .map(|(c, _)| c.clone())
            .collect();
        if categories.is_empty() {
            return Err(Error::EmptyData(
                "one-hot fit on all-missing column".to_string(),
            ));
        }
        Ok(OneHotEncoder { categories })
    }

    /// The categories observed at fit time, in first-seen order.
    #[must_use]
    pub fn categories(&self) -> &[String] {
        &self.categories
    }

    /// Output width: one indicator per training category plus the
    /// unseen-category slot.
    #[must_use]
    pub fn width(&self) -> usize {
        self.categories.len() + 1
    }

    /// Names of the produced feature dimensions, prefixed with the source
    /// attribute name (e.g. `workclass=Private`, `workclass=<unseen>`).
    #[must_use]
    pub fn feature_names(&self, attribute: &str) -> Vec<String> {
        let mut names: Vec<String> = self
            .categories
            .iter()
            .map(|c| format!("{attribute}={c}"))
            .collect();
        names.push(format!("{attribute}=<unseen>"));
        names
    }

    /// Serializes the fitted categories into a sealed component record
    /// (an array of category strings in first-seen order).
    #[must_use]
    pub fn seal(&self) -> Value {
        Value::Arr(
            self.categories
                .iter()
                .map(|c| Value::Str(c.clone()))
                .collect(),
        )
    }

    /// Reconstructs an encoder from a sealed component record.
    pub fn unseal(v: &Value) -> Result<OneHotEncoder> {
        let categories: Vec<String> = v
            .as_array()
            .ok_or_else(|| sealing::seal_err("one-hot record is not an array"))?
            .iter()
            .map(|c| {
                c.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| sealing::seal_err("one-hot category is not a string"))
            })
            .collect::<Result<_>>()?;
        if categories.is_empty() {
            return Err(sealing::seal_err("one-hot record has no categories"));
        }
        Ok(OneHotEncoder { categories })
    }

    /// Encodes one value into `out` (which must have length
    /// [`OneHotEncoder::width`]). Unseen categories set the final slot;
    /// missing values encode as all-zeros (the imputation stage runs before
    /// featurization, so this is a defensive fallback, not the normal path).
    pub fn encode_into(&self, value: Option<&str>, out: &mut [f64]) -> Result<()> {
        if out.len() != self.width() {
            return Err(Error::LengthMismatch {
                expected: self.width(),
                actual: out.len(),
            });
        }
        out.fill(0.0);
        if let Some(slot) = value.and_then(|v| out.get_mut(self.slot_of(v))) {
            *slot = 1.0;
        }
        Ok(())
    }

    /// The output slot `value` sets: its training category's indicator,
    /// or the unseen slot (`width() - 1`) for a category not seen at
    /// fit time.
    #[must_use]
    pub fn slot_of(&self, value: &str) -> usize {
        self.categories
            .iter()
            .position(|c| c == value)
            .unwrap_or(self.categories.len())
    }

    /// Convenience wrapper returning a fresh vector.
    pub fn encode(&self, value: Option<&str>) -> Vec<f64> {
        let mut out = vec![0.0; self.width()];
        // audit: allow(expect, reason = "the output vector is allocated with self.width() on the previous line")
        self.encode_into(value, &mut out).expect("width matches");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fitted() -> OneHotEncoder {
        let col = Column::from_strs(["red", "green", "red", "blue"]);
        OneHotEncoder::fit(&col).unwrap()
    }

    #[test]
    fn fit_records_first_seen_order() {
        let enc = fitted();
        assert_eq!(enc.categories(), &["red", "green", "blue"]);
        assert_eq!(enc.width(), 4);
    }

    #[test]
    fn encodes_known_categories() {
        let enc = fitted();
        assert_eq!(enc.encode(Some("red")), vec![1.0, 0.0, 0.0, 0.0]);
        assert_eq!(enc.encode(Some("blue")), vec![0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn unseen_category_uses_dedicated_slot() {
        let enc = fitted();
        assert_eq!(enc.encode(Some("purple")), vec![0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn missing_encodes_as_zeros() {
        let enc = fitted();
        assert_eq!(enc.encode(None), vec![0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn exactly_one_hot_for_observed_values() {
        let enc = fitted();
        for v in ["red", "green", "blue", "never-seen"] {
            let e = enc.encode(Some(v));
            assert_eq!(e.iter().sum::<f64>(), 1.0, "value {v}");
        }
    }

    #[test]
    fn fit_skips_missing_values() {
        let col = Column::from_optional_strs([Some("a"), None, Some("b")]);
        let enc = OneHotEncoder::fit(&col).unwrap();
        assert_eq!(enc.categories(), &["a", "b"]);
    }

    #[test]
    fn fit_on_all_missing_is_error() {
        let col = Column::from_optional_strs([None, None]);
        assert!(OneHotEncoder::fit(&col).is_err());
    }

    #[test]
    fn fit_rejects_numeric_column() {
        let col = Column::from_f64([1.0]);
        assert!(OneHotEncoder::fit(&col).is_err());
    }

    #[test]
    fn feature_names_are_prefixed() {
        let enc = fitted();
        assert_eq!(
            enc.feature_names("color"),
            vec!["color=red", "color=green", "color=blue", "color=<unseen>"]
        );
    }

    #[test]
    fn encode_into_checks_width() {
        let enc = fitted();
        let mut small = vec![0.0; 2];
        assert!(enc.encode_into(Some("red"), &mut small).is_err());
    }

    #[test]
    fn dictionary_categories_unused_in_train_are_excluded() {
        // Build a column whose dictionary knows "c" but whose rows never use it
        // (as happens after `take` of a subset).
        let col = Column::from_strs(["a", "b", "c"]);
        let sub = col.take(&[0, 1]);
        let enc = OneHotEncoder::fit(&sub).unwrap();
        assert_eq!(enc.categories(), &["a", "b"]);
        // "c" now routes to the unseen slot.
        assert_eq!(enc.encode(Some("c")), vec![0.0, 0.0, 1.0]);
    }
}

//! Bookkeeping for the open loop: when each arrival was due, when the
//! generator actually submitted it, and when the `drain` call that ran
//! it returned.

/// Region name of arrival `idx` (the drainer reads the index back).
pub fn region_name(idx: usize) -> String {
    format!("arrival-{idx}")
}

/// Arrival index encoded by [`region_name`].
pub fn parse_region_name(name: &str) -> Option<usize> {
    name.strip_prefix("arrival-")?.parse().ok()
}

/// Per-arrival times in seconds from the schedule origin.
#[derive(Debug, Clone)]
pub struct SojournBook {
    due_s: Vec<f64>,
    submitted_s: Vec<Option<f64>>,
    done_s: Vec<Option<f64>>,
}

impl SojournBook {
    /// Book for arrivals due at `due_s` (indexed by arrival).
    pub fn new(due_s: Vec<f64>) -> SojournBook {
        let n = due_s.len();
        SojournBook {
            due_s,
            submitted_s: vec![None; n],
            done_s: vec![None; n],
        }
    }

    /// Arrivals in the schedule.
    pub fn len(&self) -> usize {
        self.due_s.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.due_s.is_empty()
    }

    /// The generator submitted arrival `idx` at `at_s`.
    pub fn submitted(&mut self, idx: usize, at_s: f64) -> Result<(), String> {
        let slot = self
            .submitted_s
            .get_mut(idx)
            .ok_or_else(|| format!("unknown arrival {idx}"))?;
        if slot.replace(at_s).is_some() {
            return Err(format!("arrival {idx} submitted twice"));
        }
        Ok(())
    }

    /// A `drain` call that returned at `returned_s` completed `idx`.
    /// The drain's return is the first moment the host can see the
    /// outputs, so the sojourn it yields is an upper bound.
    pub fn completed(&mut self, idx: usize, returned_s: f64) -> Result<(), String> {
        let due = *self
            .due_s
            .get(idx)
            .ok_or_else(|| format!("unknown arrival {idx}"))?;
        if self.submitted_s[idx].is_none() {
            return Err(format!("arrival {idx} completed before it was submitted"));
        }
        if returned_s < due {
            return Err(format!("arrival {idx} completed before it was due"));
        }
        if self.done_s[idx].replace(returned_s).is_some() {
            return Err(format!("arrival {idx} completed twice"));
        }
        Ok(())
    }

    /// Sojourn (drain return − due) of every completed arrival `keep`
    /// selects.
    pub fn sojourns(&self, keep: impl Fn(usize) -> bool) -> Vec<f64> {
        (0..self.len())
            .filter(|&i| keep(i))
            .filter_map(|i| self.done_s[i].map(|d| d - self.due_s[i]))
            .collect()
    }

    /// How late the generator submitted each submitted arrival.
    pub fn lags(&self) -> Vec<f64> {
        (0..self.len())
            .filter_map(|i| self.submitted_s[i].map(|s| (s - self.due_s[i]).max(0.0)))
            .collect()
    }

    /// Submitted arrivals that never completed.
    pub fn outstanding(&self) -> usize {
        (0..self.len())
            .filter(|&i| self.submitted_s[i].is_some() && self.done_s[i].is_none())
            .count()
    }
}

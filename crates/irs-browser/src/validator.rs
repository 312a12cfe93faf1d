//! The in-browser validation engine.
//!
//! Sans-io, like the proxy: [`BrowserValidator::plan`] classifies a photo
//! into a local outcome or a needed proxy query; the embedding application
//! performs the I/O and calls [`BrowserValidator::complete`]. The §4.4
//! "early adoption" note — "one could use the same strategy to reduce the
//! load on the proxies by inserting a Bloom filter in browsers themselves"
//! — is the optional local filter: the proxy's own [`FilterSet`], fed the
//! same [`Publication`]s a ledger's serve matrix returns and the wire
//! carries, so a browser and a proxy answer a photo locally under one
//! rule. A browser that is current needs nothing installed: a ledger
//! answers it an empty same-version delta, which is not a publication
//! to apply.

use irs_core::claim::RevocationStatus;
use irs_core::ids::{LedgerId, RecordId};
use irs_core::photo::{LabelReading, LabelState};
use irs_core::policy::{ValidationOutcome, ViewerPolicy};
use irs_core::time::TimeMs;
use irs_filters::{FilterError, Publication};
use irs_proxy::{FilterSet, LruTtlCache};

/// What the validator decides for one photo.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValidationPlan {
    /// Resolved locally.
    Local(ValidationOutcome),
    /// Must ask the proxy about this record, then call `complete`.
    AskProxy(RecordId),
}

/// Counters for the browser's validation traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ValidatorStats {
    /// Photos examined.
    pub examined: u64,
    /// Resolved by the in-browser filter.
    pub local_filter: u64,
    /// Resolved by the in-browser cache.
    pub local_cache: u64,
    /// Sent to the proxy.
    pub proxy_queries: u64,
    /// Photos with no label at all.
    pub unlabeled: u64,
}

/// The validation engine an IRS-enabled browser embeds.
pub struct BrowserValidator {
    /// In-browser copy of the ledgers' revoked-set filters (empty until
    /// one is installed).
    filters: FilterSet,
    cache: LruTtlCache<RecordId, RevocationStatus>,
    /// The viewer policy in force.
    pub policy: ViewerPolicy,
    /// Counters.
    pub stats: ValidatorStats,
}

impl BrowserValidator {
    /// Create a validator. `cache_entries`/`cache_ttl_ms` bound local
    /// status reuse.
    pub fn new(policy: ViewerPolicy, cache_entries: usize, cache_ttl_ms: u64) -> Self {
        BrowserValidator {
            filters: FilterSet::new(),
            cache: LruTtlCache::new(cache_entries.max(1), cache_ttl_ms),
            policy,
            stats: ValidatorStats::default(),
        }
    }

    /// Apply one of `ledger`'s filter publications to the in-browser
    /// filters — the proxy's validated [`FilterSet::apply`]; a rejected
    /// update changes nothing.
    pub fn install_filter(
        &mut self,
        ledger: LedgerId,
        update: Publication,
    ) -> Result<(), FilterError> {
        self.filters.apply(ledger, update)
    }

    /// Classify a photo given its label reading.
    pub fn plan(&mut self, reading: &LabelReading, now: TimeMs) -> ValidationPlan {
        self.stats.examined += 1;
        let id = match reading.state() {
            LabelState::Unlabeled => {
                self.stats.unlabeled += 1;
                return ValidationPlan::Local(ValidationOutcome::NotClaimed);
            }
            LabelState::Inconsistent => {
                // Viewer-side: advisory; see ViewerPolicy for handling.
                return ValidationPlan::Local(ValidationOutcome::InconsistentLabel);
            }
            LabelState::Labeled(id) => id,
        };
        // Only a miss in a filter that covers the record's ledger says
        // "definitely not revoked"; anything else asks.
        if self.filters.might_be_revoked(id.ledger, id.filter_key()) == Some(false) {
            self.stats.local_filter += 1;
            return ValidationPlan::Local(ValidationOutcome::Valid(id));
        }
        if let Some(status) = self.cache.get(&id, now) {
            self.stats.local_cache += 1;
            return ValidationPlan::Local(outcome_for(id, status));
        }
        self.stats.proxy_queries += 1;
        ValidationPlan::AskProxy(id)
    }

    /// Feed back a proxy answer; returns the final outcome.
    pub fn complete(
        &mut self,
        id: RecordId,
        status: RevocationStatus,
        now: TimeMs,
    ) -> ValidationOutcome {
        self.cache.insert(id, status, now);
        outcome_for(id, status)
    }

    /// The proxy did not answer (timeout): policy decides.
    pub fn complete_unreachable(&mut self, id: RecordId) -> ValidationOutcome {
        ValidationOutcome::Unknown(id)
    }

    /// Feed back a *stale* proxy answer (a degraded proxy serving from
    /// its last-good state with an honest age, `Response::StatusStale`).
    ///
    /// A stale `Revoked` is always honored — acting on an old takedown
    /// is strictly safer than ignoring it. A stale `NotRevoked` is only
    /// trusted within `max_stale_ms`; beyond that the record may have
    /// been revoked since, so the answer degrades to `Unknown` and the
    /// viewer policy decides (fail-open shows it, Nongoal #4's bounded
    /// delay; fail-closed hides it).
    pub fn complete_stale(
        &mut self,
        id: RecordId,
        status: RevocationStatus,
        age_ms: u64,
        max_stale_ms: u64,
    ) -> ValidationOutcome {
        if !status.allows_viewing() {
            return ValidationOutcome::Revoked(id);
        }
        if age_ms <= max_stale_ms {
            // Deliberately NOT cached: a stale answer must not launder
            // itself into a fresh one on the next lookup.
            ValidationOutcome::Valid(id)
        } else {
            ValidationOutcome::Unknown(id)
        }
    }
}

fn outcome_for(id: RecordId, status: RevocationStatus) -> ValidationOutcome {
    if status.allows_viewing() {
        ValidationOutcome::Valid(id)
    } else {
        ValidationOutcome::Revoked(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_core::policy::DisplayAction;
    use irs_filters::BloomFilter;

    fn rid(n: u64) -> RecordId {
        RecordId::new(LedgerId(1), n)
    }

    fn labeled(id: RecordId) -> LabelReading {
        LabelReading {
            metadata_id: Some(id),
            watermark_id: Some(id),
        }
    }

    fn validator() -> BrowserValidator {
        BrowserValidator::new(ViewerPolicy::default(), 64, 10_000)
    }

    #[test]
    fn unlabeled_resolves_locally() {
        let mut v = validator();
        let reading = LabelReading {
            metadata_id: None,
            watermark_id: None,
        };
        assert_eq!(
            v.plan(&reading, TimeMs(0)),
            ValidationPlan::Local(ValidationOutcome::NotClaimed)
        );
        assert_eq!(v.stats.unlabeled, 1);
    }

    #[test]
    fn inconsistent_label_resolves_locally() {
        let mut v = validator();
        let reading = LabelReading {
            metadata_id: Some(rid(1)),
            watermark_id: None,
        };
        assert_eq!(
            v.plan(&reading, TimeMs(0)),
            ValidationPlan::Local(ValidationOutcome::InconsistentLabel)
        );
    }

    #[test]
    fn labeled_without_filter_asks_proxy() {
        let mut v = validator();
        assert_eq!(
            v.plan(&labeled(rid(1)), TimeMs(0)),
            ValidationPlan::AskProxy(rid(1))
        );
        let outcome = v.complete(rid(1), RevocationStatus::Revoked, TimeMs(0));
        assert_eq!(outcome, ValidationOutcome::Revoked(rid(1)));
        // Cached now.
        assert_eq!(
            v.plan(&labeled(rid(1)), TimeMs(100)),
            ValidationPlan::Local(ValidationOutcome::Revoked(rid(1)))
        );
        assert_eq!(v.stats.local_cache, 1);
    }

    #[test]
    fn in_browser_filter_short_circuits() {
        let mut v = validator();
        let mut f = BloomFilter::with_params(1 << 12, 4, 0).unwrap();
        f.insert(rid(7).filter_key());
        v.install_filter(LedgerId(1), Publication::full(1, f.to_bytes()))
            .unwrap();
        // rid(7) hits the revoked-set filter → proxy; rid(1000) misses →
        // definitely not revoked → locally valid.
        assert_eq!(
            v.plan(&labeled(rid(7)), TimeMs(0)),
            ValidationPlan::AskProxy(rid(7))
        );
        assert_eq!(
            v.plan(&labeled(rid(1000)), TimeMs(0)),
            ValidationPlan::Local(ValidationOutcome::Valid(rid(1000)))
        );
        assert_eq!(v.stats.local_filter, 1);
    }

    #[test]
    fn policy_drives_display() {
        let mut v = validator();
        let outcome = v.complete(rid(2), RevocationStatus::Revoked, TimeMs(0));
        assert_eq!(v.policy.display_action(outcome), DisplayAction::Placeholder);
        let ok = v.complete(rid(3), RevocationStatus::NotRevoked, TimeMs(0));
        assert_eq!(v.policy.display_action(ok), DisplayAction::Show);
    }

    #[test]
    fn unreachable_fails_open_by_default() {
        let mut v = validator();
        let outcome = v.complete_unreachable(rid(9));
        assert_eq!(v.policy.display_action(outcome), DisplayAction::Show);
    }

    #[test]
    fn stale_answers_degrade_by_age_and_severity() {
        let mut v = validator();
        // Stale revocation: honored at any age.
        assert_eq!(
            v.complete_stale(rid(5), RevocationStatus::Revoked, 999_999, 1_000),
            ValidationOutcome::Revoked(rid(5))
        );
        // Fresh-enough stale NotRevoked: still valid.
        assert_eq!(
            v.complete_stale(rid(6), RevocationStatus::NotRevoked, 500, 1_000),
            ValidationOutcome::Valid(rid(6))
        );
        // Too old: Unknown, and the default policy fails open.
        let outcome = v.complete_stale(rid(7), RevocationStatus::NotRevoked, 5_000, 1_000);
        assert_eq!(outcome, ValidationOutcome::Unknown(rid(7)));
        assert_eq!(v.policy.display_action(outcome), DisplayAction::Show);
        // Stale answers are not cached as fresh.
        assert_eq!(
            v.plan(&labeled(rid(6)), TimeMs(1)),
            ValidationPlan::AskProxy(rid(6))
        );
    }

    #[test]
    fn permanently_revoked_blocks() {
        let mut v = validator();
        let outcome = v.complete(rid(4), RevocationStatus::PermanentlyRevoked, TimeMs(0));
        assert_eq!(outcome, ValidationOutcome::Revoked(rid(4)));
    }
}

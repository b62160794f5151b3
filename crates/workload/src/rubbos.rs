//! The RUBBoS macro-benchmark model.
//!
//! RUBBoS is the n-tier benchmark used in the paper's Section II: a
//! Slashdot-like news site with **24 web interactions**, navigated by
//! emulated users whose behaviour follows a Markov chain with ~7-second
//! think times. The paper reports that under this workload the Tomcat tier
//! sees an average response size of ~20 KB and a workload concurrency of
//! ~35 at system saturation — the regime in which the asynchronous Tomcat
//! loses to the synchronous one (its Fig 1).
//!
//! This module provides the interaction table (names, weights, response
//! sizes, database work), the per-user [`Navigator`] Markov chain, and the
//! [`RubbosConfig`] consumed by the macro-benchmark engine in
//! `asyncinv-servers`.

use asyncinv_simcore::{SimDuration, SimRng};
use serde::{Deserialize, Serialize};

use crate::think::ThinkTime;

/// One RUBBoS web interaction as served by the application tier.
#[derive(Debug, Clone, PartialEq)]
pub struct Interaction {
    /// Interaction name (RUBBoS servlet).
    pub name: &'static str,
    /// Relative steady-state popularity.
    pub weight: f64,
    /// Response payload produced by the application server, in bytes.
    pub response_bytes: usize,
    /// Number of database round trips the interaction performs.
    pub db_queries: usize,
}

/// The 24 RUBBoS interactions with browse-heavy weights.
///
/// Sizes are chosen so the popularity-weighted mean response is ~20 KB,
/// matching the paper's measurement ("the average response size of Tomcat
/// per request is about 20KB"). Weights follow the standard RUBBoS
/// user-transition behaviour: story browsing and viewing dominate;
/// registration, submission and moderation are rare.
pub fn interactions() -> Vec<Interaction> {
    // name, weight, response KB (approx), db queries
    let table: [(&'static str, f64, f64, usize); 24] = [
        ("StoriesOfTheDay", 19.0, 36.0, 2),
        ("ViewStory", 17.0, 24.0, 3),
        ("ViewComment", 12.0, 16.0, 2),
        ("BrowseCategories", 7.0, 6.0, 1),
        ("BrowseStoriesByCategory", 9.0, 20.0, 2),
        ("OlderStories", 6.0, 28.0, 2),
        ("Search", 4.0, 4.0, 1),
        ("SearchInStories", 3.5, 18.0, 2),
        ("SearchInComments", 2.0, 14.0, 2),
        ("SearchInUsers", 1.0, 6.0, 1),
        ("ViewUserInfo", 2.5, 8.0, 2),
        ("PostCommentForm", 2.2, 4.0, 1),
        ("StoreComment", 2.0, 1.0, 2),
        ("SubmitStoryForm", 0.9, 4.0, 0),
        ("StoreStory", 0.8, 1.0, 2),
        ("RegisterForm", 0.6, 2.0, 0),
        ("RegisterUser", 0.5, 1.0, 1),
        ("AuthorLogin", 0.4, 2.0, 1),
        ("AuthorTasks", 0.4, 6.0, 1),
        ("ReviewStories", 0.35, 22.0, 2),
        ("AcceptStory", 0.25, 1.0, 1),
        ("RejectStory", 0.15, 1.0, 1),
        ("ModerateComment", 0.3, 10.0, 2),
        ("StoreModeratedComment", 0.25, 1.0, 2),
    ];
    table
        .iter()
        .map(|&(name, weight, kb, db_queries)| Interaction {
            name,
            weight,
            response_bytes: (kb * 1024.0) as usize,
            db_queries,
        })
        .collect()
}

/// Per-user Markov-chain navigation over the interaction set.
///
/// The chain mixes two behaviours, as in the RUBBoS client: with
/// probability [`Navigator::FOLLOW_P`] the user follows a contextual link
/// from the current page (browse → view → comment chains); otherwise it
/// jumps according to the global popularity weights (back to the front
/// page, a search, ...). This produces the same stationary visit mix as the
/// weights while preserving realistic session structure.
#[derive(Debug, Clone)]
pub struct Navigator {
    interactions: Vec<Interaction>,
    weights: Vec<f64>,
    current: usize,
}

impl Navigator {
    /// Probability of following a contextual link instead of a global jump.
    pub const FOLLOW_P: f64 = 0.45;

    /// Creates a navigator starting at the front page.
    pub fn new() -> Self {
        let interactions = interactions();
        let weights = interactions.iter().map(|i| i.weight).collect();
        Navigator {
            interactions,
            weights,
            current: 0, // StoriesOfTheDay
        }
    }

    /// The interaction table this navigator walks.
    pub fn interactions(&self) -> &[Interaction] {
        &self.interactions
    }

    /// Index of the current interaction.
    pub fn current(&self) -> usize {
        self.current
    }

    /// Contextual successors of an interaction (RUBBoS link structure).
    fn followups(idx: usize) -> &'static [usize] {
        // Indices into the `interactions()` table.
        const STORIES_OF_THE_DAY: usize = 0;
        const VIEW_STORY: usize = 1;
        const VIEW_COMMENT: usize = 2;
        const BROWSE_CATEGORIES: usize = 3;
        const BROWSE_BY_CATEGORY: usize = 4;
        const OLDER_STORIES: usize = 5;
        const SEARCH: usize = 6;
        const SEARCH_STORIES: usize = 7;
        const VIEW_USER: usize = 10;
        const POST_COMMENT_FORM: usize = 11;
        const STORE_COMMENT: usize = 12;
        match idx {
            STORIES_OF_THE_DAY => &[VIEW_STORY, BROWSE_CATEGORIES, OLDER_STORIES, SEARCH],
            VIEW_STORY => &[
                VIEW_COMMENT,
                POST_COMMENT_FORM,
                VIEW_USER,
                STORIES_OF_THE_DAY,
            ],
            VIEW_COMMENT => &[VIEW_COMMENT, POST_COMMENT_FORM, VIEW_STORY],
            BROWSE_CATEGORIES => &[BROWSE_BY_CATEGORY],
            BROWSE_BY_CATEGORY => &[VIEW_STORY, OLDER_STORIES],
            OLDER_STORIES => &[VIEW_STORY, OLDER_STORIES],
            SEARCH => &[SEARCH_STORIES],
            SEARCH_STORIES => &[VIEW_STORY, SEARCH],
            POST_COMMENT_FORM => &[STORE_COMMENT],
            STORE_COMMENT => &[VIEW_STORY, STORIES_OF_THE_DAY],
            _ => &[STORIES_OF_THE_DAY],
        }
    }

    /// Advances the chain and returns the next interaction index.
    pub fn step(&mut self, rng: &mut SimRng) -> usize {
        let next = if rng.gen_bool(Self::FOLLOW_P) {
            let options = Self::followups(self.current);
            options[rng.gen_range(options.len() as u64) as usize]
        } else {
            rng.weighted_index(&self.weights)
        };
        self.current = next;
        next
    }
}

impl Default for Navigator {
    fn default() -> Self {
        Navigator::new()
    }
}

/// Configuration of a RUBBoS macro-benchmark run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RubbosConfig {
    /// Number of emulated users.
    pub users: usize,
    /// Think time between page requests (default: exponential, 7 s mean).
    pub think: ThinkTime,
    /// MySQL tier: worker threads.
    pub db_servers: usize,
    /// MySQL tier: mean per-query service time.
    pub db_service: SimDuration,
    /// Apache tier pass-through delay (each way).
    pub web_tier_delay: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RubbosConfig {
    fn default() -> Self {
        RubbosConfig {
            users: 1000,
            think: ThinkTime::Exponential(SimDuration::from_secs(7)),
            db_servers: 24,
            db_service: SimDuration::from_micros(600),
            web_tier_delay: SimDuration::from_micros(150),
            seed: 42,
        }
    }
}

/// The popularity-weighted mean response size of the interaction table.
pub fn mean_response_bytes() -> f64 {
    let ints = interactions();
    let total: f64 = ints.iter().map(|i| i.weight).sum();
    ints.iter()
        .map(|i| i.response_bytes as f64 * i.weight / total)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_24_interactions() {
        assert_eq!(interactions().len(), 24);
    }

    #[test]
    fn mean_response_near_20kb() {
        let mean = mean_response_bytes();
        // The paper reports ~20 KB average Tomcat responses under RUBBoS.
        assert!(
            (18.0 * 1024.0..=25.0 * 1024.0).contains(&mean),
            "mean response {mean} outside 18-25 KB"
        );
    }

    #[test]
    fn weights_positive() {
        assert!(interactions().iter().all(|i| i.weight > 0.0));
    }

    #[test]
    fn navigator_visits_follow_popularity() {
        let mut nav = Navigator::new();
        let mut rng = SimRng::new(7);
        let n = 100_000;
        let mut counts = [0u32; 24];
        for _ in 0..n {
            counts[nav.step(&mut rng)] += 1;
        }
        // Front page and ViewStory are the two most visited pages.
        let mut ranked: Vec<usize> = (0..24).collect();
        ranked.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
        assert!(ranked[..3].contains(&0), "StoriesOfTheDay in top 3");
        assert!(ranked[..3].contains(&1), "ViewStory in top 3");
        // Every interaction is reachable.
        assert!(counts.iter().all(|&c| c > 0), "unreachable interaction");
    }

    #[test]
    fn followups_are_valid_indices() {
        for i in 0..24 {
            for &f in Navigator::followups(i) {
                assert!(f < 24, "followup {f} of {i} out of range");
            }
        }
    }

    #[test]
    fn navigator_is_deterministic() {
        let run = |seed| {
            let mut nav = Navigator::new();
            let mut rng = SimRng::new(seed);
            (0..100).map(|_| nav.step(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn default_config_matches_paper_setup() {
        let cfg = RubbosConfig::default();
        assert_eq!(cfg.think.mean(), SimDuration::from_secs(7));
        assert!(cfg.users >= 100);
    }
}

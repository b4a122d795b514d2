//! The platform feed: publish posts, poll for new ones, query status.
//!
//! [`PlatformFeed`] is the simulated equivalent of the Twitter/CrowdTangle
//! API surface the paper's streaming module consumes: a time-windowed poll
//! for new posts plus per-post status checks (the Section 4.4 deletion
//! probes keyed by post id).

use crate::moderation::ModerationProfile;
use crate::post::{author_handle, lure_text, Post, PostId};
use freephish_fwbsim::history::Platform;
use freephish_simclock::{Rng64, SimTime};

/// One platform's feed of posts, ordered by posting time.
#[derive(Debug)]
pub struct PlatformFeed {
    /// Which platform this feed belongs to.
    pub platform: Platform,
    posts: Vec<Post>,
    rng: Rng64,
    next_id: u64,
}

impl PlatformFeed {
    /// An empty feed.
    pub fn new(platform: Platform, seed: u64) -> PlatformFeed {
        PlatformFeed {
            platform,
            posts: Vec::new(),
            rng: Rng64::new(seed ^ (platform as u64 + 1).wrapping_mul(0xfeed)),
            next_id: 1,
        }
    }

    /// Publish a post sharing `url` at `posted_at`, with moderation fate
    /// drawn from `profile`. Posts must be published in non-decreasing time
    /// order (the generators iterate time forward).
    pub fn publish(
        &mut self,
        url: &str,
        brand_name: Option<&str>,
        posted_at: SimTime,
        profile: &ModerationProfile,
    ) -> PostId {
        if let Some(last) = self.posts.last() {
            assert!(
                posted_at >= last.posted_at,
                "posts must be published in time order"
            );
        }
        let id = PostId(self.next_id);
        self.next_id += 1;
        let deleted_at = profile.draw_deletion(posted_at, &mut self.rng);
        let text = lure_text(url, brand_name, &mut self.rng);
        self.posts.push(Post {
            id,
            platform: self.platform,
            text,
            url: url.to_string(),
            author: author_handle(&mut self.rng),
            posted_at,
            deleted_at,
        });
        id
    }

    /// Posts published in `[from, to)` that are still visible at `to` —
    /// the poll the streaming module runs every ten minutes. (A post
    /// deleted before the poll fires is never observed, exactly like the
    /// real API.) Posts are time-sorted, so the window is located by
    /// binary search and polling a long feed stays cheap.
    pub fn poll_window(&self, from: SimTime, to: SimTime) -> Vec<&Post> {
        let start = self.posts.partition_point(|p| p.posted_at < from);
        let end = self.posts.partition_point(|p| p.posted_at < to);
        self.posts[start..end]
            .iter()
            .filter(|p| p.is_visible(to))
            .collect()
    }

    /// Status probe by post id: `Some(true)` = visible, `Some(false)` =
    /// deleted, `None` = unknown id.
    pub fn is_visible(&self, id: PostId, now: SimTime) -> Option<bool> {
        self.post(id).map(|p| p.is_visible(now))
    }

    /// Borrow a post by id. Ids are dense from 1 and posts are only ever
    /// pushed, so post `n` sits at index `n - 1`.
    pub fn post(&self, id: PostId) -> Option<&Post> {
        let index = usize::try_from(id.0.checked_sub(1)?).ok()?;
        self.posts.get(index).filter(|p| p.id == id)
    }

    /// All posts (test/analysis access).
    pub fn posts(&self) -> &[Post] {
        &self.posts
    }

    /// Number of posts.
    pub fn len(&self) -> usize {
        self.posts.len()
    }

    /// True when no posts exist.
    pub fn is_empty(&self) -> bool {
        self.posts.is_empty()
    }

    /// Mutable RNG access for co-located generators.
    pub fn rng(&mut self) -> &mut Rng64 {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freephish_webgen::FwbKind;

    fn never() -> ModerationProfile {
        ModerationProfile {
            delete_prob: 0.0,
            median_mins: 1.0,
            sigma: 0.1,
        }
    }

    fn always_fast() -> ModerationProfile {
        ModerationProfile {
            delete_prob: 1.0,
            median_mins: 5.0,
            sigma: 0.01,
        }
    }

    #[test]
    fn publish_and_poll() {
        let mut feed = PlatformFeed::new(Platform::Twitter, 1);
        feed.publish(
            "https://a.weebly.com/",
            None,
            SimTime::from_mins(5),
            &never(),
        );
        feed.publish(
            "https://b.weebly.com/",
            None,
            SimTime::from_mins(15),
            &never(),
        );
        let w = feed.poll_window(SimTime::ZERO, SimTime::from_mins(10));
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].url, "https://a.weebly.com/");
        let all = feed.poll_window(SimTime::ZERO, SimTime::from_mins(20));
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn deleted_before_poll_is_missed() {
        let mut feed = PlatformFeed::new(Platform::Twitter, 2);
        let id = feed.publish(
            "https://gone.weebly.com/",
            Some("PayPal"),
            SimTime::from_mins(1),
            &always_fast(),
        );
        // Deleted ~5 minutes after posting; a poll at t=60min misses it.
        let w = feed.poll_window(SimTime::ZERO, SimTime::from_mins(60));
        assert!(w.is_empty());
        assert_eq!(feed.is_visible(id, SimTime::from_mins(60)), Some(false));
        assert_eq!(feed.is_visible(id, SimTime::from_mins(2)), Some(true));
    }

    #[test]
    fn unknown_id_is_none() {
        let feed = PlatformFeed::new(Platform::Facebook, 3);
        assert_eq!(feed.is_visible(PostId(99), SimTime::ZERO), None);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_publish_panics() {
        let mut feed = PlatformFeed::new(Platform::Twitter, 4);
        feed.publish(
            "https://a.weebly.com/",
            None,
            SimTime::from_mins(10),
            &never(),
        );
        feed.publish(
            "https://b.weebly.com/",
            None,
            SimTime::from_mins(5),
            &never(),
        );
    }

    #[test]
    fn ids_are_unique_and_increasing() {
        let mut feed = PlatformFeed::new(Platform::Twitter, 5);
        let mut prev = 0;
        for i in 0..20 {
            let id = feed.publish(
                &format!("https://s{i}.weebly.com/"),
                None,
                SimTime::from_mins(i),
                &never(),
            );
            assert!(id.0 > prev);
            prev = id.0;
        }
    }

    #[test]
    fn lookup_by_id_matches_a_linear_scan() {
        let mut feed = PlatformFeed::new(Platform::Facebook, 7);
        let profile = ModerationProfile::fwb(Platform::Facebook, FwbKind::Weebly);
        for i in 0..3_000u64 {
            feed.publish(
                &format!("https://p{i}.weebly.com/"),
                None,
                SimTime::from_mins(i / 3),
                &profile,
            );
        }
        let scan = |id: PostId| feed.posts().iter().find(|p| p.id == id);
        let probes = (0..=feed.len() as u64 + 5).chain([u64::MAX - 1, u64::MAX]);
        for id in probes.map(PostId) {
            assert_eq!(
                feed.post(id).map(|p| p as *const Post),
                scan(id).map(|p| p as *const Post),
                "{id:?}"
            );
            for now in [
                SimTime::ZERO,
                SimTime::from_mins(500),
                SimTime::from_days(30),
            ] {
                assert_eq!(
                    feed.is_visible(id, now),
                    scan(id).map(|p| p.is_visible(now)),
                    "{id:?} at {now:?}"
                );
            }
        }
        assert!(feed.post(PostId(0)).is_none());
        assert!(feed.post(PostId(feed.len() as u64 + 1)).is_none());
    }

    #[test]
    fn moderation_profile_applies_per_post() {
        let mut feed = PlatformFeed::new(Platform::Twitter, 6);
        let profile = ModerationProfile::fwb(Platform::Twitter, FwbKind::Wix);
        for i in 0..2000u64 {
            feed.publish(
                &format!("https://w{i}.wixsite.com/"),
                None,
                SimTime::from_mins(i),
                &profile,
            );
        }
        let deleted = feed
            .posts()
            .iter()
            .filter(|p| p.deleted_at.is_some())
            .count();
        let rate = deleted as f64 / feed.len() as f64;
        // Wix Twitter profile: 0.3577 * 1.15 ≈ 0.41.
        assert!((0.36..0.47).contains(&rate), "rate={rate}");
    }
}

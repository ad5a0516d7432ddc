//! Crash-mid-append property for the coordinator's intent log: truncating
//! it at **every** byte offset reopens cleanly — `IntentLog::open` never
//! errors or panics (a tear is not corruption), the open plans it returns
//! are exactly those the complete frames describe, and a second open (over
//! the log the first one compacted) returns the same plans.
//!
//! This is what a coordinator resumed after a crash mid-record relies on: a
//! step whose record was torn never executed, so it must not reappear, and
//! every step recorded before it must.

use curp_proto::frame::FrameDecoder;
use curp_storage::{IntentLog, OpenPlan, TempDir};
use proptest::prelude::*;

/// One journaled mutation, as the model sees it.
#[derive(Debug, Clone)]
enum Event {
    Begin(u64, Vec<u8>),
    Step(u64, Vec<u8>),
    Close(u64),
}

/// A history action: `(kind, plan pick, payload)`. Steps and closes target
/// the `pick`-th open plan; with none open they begin one instead.
fn arb_actions() -> impl Strategy<Value = Vec<(u8, usize, Vec<u8>)>> {
    prop::collection::vec((0u8..3, 0usize..4, prop::collection::vec(any::<u8>(), 0..8)), 1..9)
}

/// Runs `actions` against a fresh log at `path`, returning the events in
/// append order.
fn record_history(path: &std::path::Path, actions: &[(u8, usize, Vec<u8>)]) -> Vec<Event> {
    let (mut log, open) = IntentLog::open(path).unwrap();
    assert!(open.is_empty());
    let mut live: Vec<u64> = Vec::new();
    let mut events = Vec::new();
    for (kind, pick, payload) in actions {
        if *kind == 0 || live.is_empty() {
            let id = log.begin(payload).unwrap();
            live.push(id);
            events.push(Event::Begin(id, payload.clone()));
        } else if *kind == 1 {
            let id = live[pick % live.len()];
            log.step(id, payload).unwrap();
            events.push(Event::Step(id, payload.clone()));
        } else {
            let id = live.remove(pick % live.len());
            log.close(id).unwrap();
            events.push(Event::Close(id));
        }
    }
    events
}

/// The plans left open by `events`, in begin order.
fn model_open(events: &[Event]) -> Vec<OpenPlan> {
    let mut open: Vec<OpenPlan> = Vec::new();
    for e in events {
        match e {
            Event::Begin(id, p) => open.push(OpenPlan { id: *id, begin: p.clone(), steps: vec![] }),
            Event::Step(id, p) => {
                if let Some(plan) = open.iter_mut().find(|plan| plan.id == *id) {
                    plan.steps.push(p.clone());
                }
            }
            Event::Close(id) => open.retain(|plan| plan.id != *id),
        }
    }
    open
}

/// Number of complete frames within the first `cut` bytes of `raw`.
fn complete_frames(raw: &[u8], cut: usize) -> usize {
    let mut decoder = FrameDecoder::new();
    decoder.push(&raw[..cut]);
    let mut frames = 0;
    while let Ok(Some(_)) = decoder.next_frame() {
        frames += 1;
    }
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_truncation_offset_reopens_the_complete_frames_plans(actions in arb_actions()) {
        let dir = TempDir::new("curp-proptest-intent").unwrap();
        let path = dir.path().join("intent.log");
        let events = record_history(&path, &actions);
        let raw = std::fs::read(&path).unwrap();
        for cut in 0..=raw.len() {
            std::fs::write(&path, &raw[..cut]).unwrap();
            let (_, open) = IntentLog::open(&path).unwrap_or_else(|e| {
                panic!("cut at {cut}/{} must not be corruption: {e}", raw.len())
            });
            let expected = model_open(&events[..complete_frames(&raw, cut)]);
            prop_assert_eq!(&open, &expected, "cut {} of {}", cut, raw.len());
            let (_, again) = IntentLog::open(&path).unwrap();
            prop_assert_eq!(&again, &open, "second open after cut {} diverged", cut);
        }
    }
}

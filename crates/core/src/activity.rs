//! The activity stream of the sparse cost models, drawn one step ahead on a
//! spare core.
//!
//! [`StatisticalActivityModel::advance`] is a pure function of the seed and
//! the step count: neither the batch nor the plan feeds it. A producer
//! thread can therefore draw the next tokens while the cost model prices
//! the current one, much as Hermes hides remapping traffic under the
//! projection kernels (Section IV-D), and no report bit moves.
//!
//! A stream starts its producer at its first [`ActivityStream::advance`],
//! so building, validating or prefilling a plan starts none. The producer
//! needs one of the process's slots: at most `available_parallelism() − 1`
//! producers run at once. Without a free slot, or if the thread does not
//! start, the stream draws inline. If the producer is lost mid-run, the
//! stream replays the tokens it took from it on its own copy of the model
//! and goes on inline. Every path yields the same tokens.
//!
//! Each side spins for a while before it sleeps on an empty channel. A
//! stream waits for its next token at every step when drawing is the
//! slower side, and a producer for a free buffer when pricing is; an idle
//! core that sleeps at each of those waits must be woken again, which on a
//! virtual machine goes through the host and makes a step's time depend on
//! what else the host runs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvError, SyncSender, TryRecvError};
use std::sync::OnceLock;
use std::thread::JoinHandle;

use hermes_sparsity::{StatisticalActivityModel, TokenActivity};

/// Token buffers a stream and its producer share: the token being priced
/// and up to three drawn ahead of it.
const RING: usize = 4;

/// Checks a side makes, [`SPIN_PAUSES`] spin hints apart, for its next
/// buffer before it sleeps: half a millisecond to two, as the CPU's spin
/// hint is short or long, and longer than either side's work on a token.
const SPINS: usize = 2048;
const SPIN_PAUSES: usize = 16;

/// Receive from `rx`, spinning for up to [`SPINS`] checks before sleeping.
fn spin_recv<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    for _ in 0..SPINS {
        match rx.try_recv() {
            Ok(value) => return Ok(value),
            Err(TryRecvError::Disconnected) => return Err(RecvError),
            Err(TryRecvError::Empty) => {
                for _ in 0..SPIN_PAUSES {
                    std::hint::spin_loop();
                }
            }
        }
    }
    rx.recv()
}

/// The producer slots of this process: one per core beyond the first,
/// counted at the first spawn.
static PRODUCERS: Slots = Slots {
    live: AtomicUsize::new(0),
    max: OnceLock::new(),
};

/// A count of running producers under a ceiling.
struct Slots {
    live: AtomicUsize,
    /// The ceiling; [`PRODUCERS`] reads it once per process.
    max: OnceLock<usize>,
}

impl Slots {
    /// Take a free slot, if any.
    fn take(&'static self) -> Option<Slot> {
        let max = *self.max.get_or_init(|| {
            std::thread::available_parallelism().map_or(0, |cores| cores.get() - 1)
        });
        // The count publishes no other data, so relaxed ordering suffices:
        // each update is one read-modify-write, so `live` never passes
        // `max`.
        self.live
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
                (live < max).then_some(live + 1)
            })
            .ok()
            .map(|_| Slot(self))
    }
}

/// One taken producer slot, freed on drop.
struct Slot(&'static Slots);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The tokens of a [`StatisticalActivityModel`], one per
/// [`advance`](Self::advance), drawn ahead on a producer thread when a slot
/// is free.
pub(crate) struct ActivityStream {
    /// Advanced here when the stream draws inline; while a producer runs,
    /// the model as it was when the producer started.
    model: StatisticalActivityModel,
    slots: &'static Slots,
    /// Tokens a producer draws before it stops: unbounded, except where a
    /// test ends a producer early.
    produce: usize,
    state: State,
}

enum State {
    /// No token drawn yet.
    Fresh,
    /// A producer draws the tokens.
    Pipelined(Producer),
    /// The caller's thread draws the tokens.
    Inline,
}

impl ActivityStream {
    /// A stream over `model`'s tokens, from its current step on.
    pub(crate) fn new(model: StatisticalActivityModel) -> Self {
        Self::with_slots(model, &PRODUCERS, usize::MAX)
    }

    fn with_slots(model: StatisticalActivityModel, slots: &'static Slots, produce: usize) -> Self {
        ActivityStream {
            model,
            slots,
            produce,
            state: State::Fresh,
        }
    }

    /// Advance by one token and return its activity: the token the model's
    /// own [`StatisticalActivityModel::advance`] would return.
    pub(crate) fn advance(&mut self) -> &TokenActivity {
        if let State::Fresh = self.state {
            #[cfg(test)]
            STARTED.with(|started| started.set(started.get() + 1));
            self.state = match Producer::spawn(&self.model, self.slots, self.produce) {
                Some(producer) => State::Pipelined(producer),
                None => State::Inline,
            };
        }
        if let State::Pipelined(producer) = &mut self.state {
            if !producer.receive() {
                // The producer is gone: replay the tokens it handed over,
                // then draw inline.
                for _ in 0..producer.consumed {
                    self.model.advance();
                }
                self.state = State::Inline;
            }
        }
        match &self.state {
            State::Pipelined(producer) => &producer.current,
            State::Fresh | State::Inline => self.model.advance(),
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Streams this thread started, pipelined or inline: each counts once,
    /// at its first [`ActivityStream::advance`].
    pub(crate) static STARTED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A thread drawing a stream's tokens ahead into a ring of [`RING`]
/// recycled buffers.
///
/// Fields drop in declaration order: the two channel ends first, so the
/// thread's next receive or send fails and it returns; then `_thread`
/// joins it; then `_slot` frees its slot.
struct Producer {
    /// Priced buffers, back to the thread for reuse.
    empty: SyncSender<TokenActivity>,
    /// Drawn tokens, in step order.
    filled: Receiver<TokenActivity>,
    _thread: Joined,
    _slot: Slot,
    /// The token being priced.
    current: TokenActivity,
    /// Tokens taken from the thread.
    consumed: usize,
}

impl Producer {
    /// Start a thread that draws up to `produce` tokens of a copy of
    /// `model`, if `slots` has a free slot and the thread starts.
    fn spawn(
        model: &StatisticalActivityModel,
        slots: &'static Slots,
        produce: usize,
    ) -> Option<Self> {
        let slot = slots.take()?;
        let (empty, empty_rx) = sync_channel(RING);
        let (filled_tx, filled) = sync_channel(RING);
        let mut model = model.clone();
        let thread = std::thread::Builder::new()
            .name("activity-stream".to_string())
            .spawn(move || {
                for _ in 0..produce {
                    let Ok(mut token) = spin_recv(&empty_rx) else {
                        return;
                    };
                    model.advance_into(&mut token);
                    if filled_tx.send(token).is_err() {
                        return;
                    }
                }
            })
            .ok()?;
        // The stream holds one buffer and the thread starts with the rest.
        // No channel ever holds more than `RING` buffers, so no send blocks.
        for _ in 1..RING {
            let _ = empty.send(TokenActivity::default());
        }
        Some(Producer {
            empty,
            filled,
            _thread: Joined(Some(thread)),
            _slot: slot,
            current: TokenActivity::default(),
            consumed: 0,
        })
    }

    /// Take the next token into `current` and hand the last one back for
    /// reuse; `false` once the thread is gone.
    fn receive(&mut self) -> bool {
        let Ok(next) = spin_recv(&self.filled) else {
            return false;
        };
        let priced = std::mem::replace(&mut self.current, next);
        // This fails only once the thread has stopped, which the next
        // receive reports.
        let _ = self.empty.send(priced);
        self.consumed += 1;
        true
    }
}

/// A thread that is joined on drop.
struct Joined(Option<JoinHandle<()>>);

impl Drop for Joined {
    fn drop(&mut self) {
        if let Some(thread) = self.0.take() {
            // A producer that panicked has nothing to report: its stream
            // has already gone inline.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_model::{ModelConfig, ModelId};
    use hermes_sparsity::SparsityProfile;

    /// A slot ceiling owned by one test, so that no other test in this
    /// binary competes for it and the core count does not matter.
    fn slots(max: usize) -> &'static Slots {
        Box::leak(Box::new(Slots {
            live: AtomicUsize::new(0),
            max: OnceLock::from(max),
        }))
    }

    /// OPT-13B's blocks over four of its layers.
    fn model() -> StatisticalActivityModel {
        let mut cfg = ModelConfig::from_id(ModelId::Opt13B);
        cfg.num_layers = 4;
        StatisticalActivityModel::new(&cfg, &SparsityProfile::for_model(&cfg), 5)
    }

    fn pipelined(stream: &ActivityStream) -> bool {
        matches!(stream.state, State::Pipelined(_))
    }

    #[test]
    fn pipelined_stream_matches_inline_model() {
        let slots = slots(1);
        let mut stream = ActivityStream::with_slots(model(), slots, usize::MAX);
        let mut inline = model();
        // 300 steps wrap the four-buffer ring 75 times.
        for step in 0..300 {
            assert_eq!(stream.advance(), inline.advance(), "step {step}");
            assert!(pipelined(&stream), "step {step}");
        }
        drop(stream);
        assert_eq!(slots.live.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_lost_producer_resumes_inline_with_the_same_tokens() {
        let slots = slots(1);
        let mut stream = ActivityStream::with_slots(model(), slots, 37);
        let mut inline = model();
        for step in 0..300 {
            assert_eq!(stream.advance(), inline.advance(), "step {step}");
            assert_eq!(pipelined(&stream), step < 37, "step {step}");
        }
        assert_eq!(slots.live.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn producers_stay_within_their_slots() {
        let slots = slots(2);
        let mut inline = model();
        let want = inline.advance().clone();
        let mut streams: Vec<ActivityStream> = (0..16)
            .map(|_| ActivityStream::with_slots(model(), slots, usize::MAX))
            .collect();
        for stream in &mut streams {
            assert_eq!(stream.advance(), &want);
        }
        assert_eq!(streams.iter().filter(|s| pipelined(s)).count(), 2);
        assert_eq!(slots.live.load(Ordering::Relaxed), 2);
        let want = inline.advance().clone();
        for stream in &mut streams {
            assert_eq!(stream.advance(), &want);
        }
        drop(streams);
        assert_eq!(slots.live.load(Ordering::Relaxed), 0);
        let mut again: Vec<ActivityStream> = (0..2)
            .map(|_| ActivityStream::with_slots(model(), slots, usize::MAX))
            .collect();
        for stream in &mut again {
            stream.advance();
            assert!(pipelined(stream));
        }
    }
}

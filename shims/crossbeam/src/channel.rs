//! Multi-producer multi-consumer channels, mirroring `crossbeam::channel`.
//!
//! Implemented on `Mutex<VecDeque>` + two `Condvar`s rather than
//! `std::sync::mpsc` because the consumers must be *cloneable*: the
//! persistent worker pool (`slpm_serve::pool`) hands one receiver to every
//! long-lived worker thread, and `std`'s receiver is single-consumer.
//! Only the surface the tree actually uses is provided:
//!
//! * [`unbounded`] / [`bounded`] constructors (capacity ≥ 1; the real
//!   crate's zero-capacity rendezvous channels are not supported),
//! * cloneable [`Sender`] / [`Receiver`] halves,
//! * blocking [`Sender::send`] / [`Receiver::recv`], non-blocking
//!   [`Receiver::try_recv`], and a draining [`Receiver::iter`].
//!
//! Disconnect semantics match crossbeam's: `send` fails once every
//! receiver is gone, `recv` fails once the queue is empty **and** every
//! sender is gone (messages in flight are still delivered first).

use crate::sync::{Arc, Condvar, Mutex};
use std::collections::VecDeque;
use std::fmt;

/// Error of [`Sender::send`]: every receiver disconnected; the unsent
/// message is handed back.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

// Manual impl without a `T: Debug` bound, as in the real crate (the
// message may be an unprintable closure).
impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

/// Error of [`Receiver::recv`]: the channel is empty and every sender
/// disconnected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty, disconnected channel")
    }
}

impl std::error::Error for RecvError {}

/// Error of [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Nothing queued right now, but senders remain connected.
    Empty,
    /// Nothing queued and every sender disconnected.
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => f.write_str("channel is empty"),
            TryRecvError::Disconnected => f.write_str("channel is empty and disconnected"),
        }
    }
}

impl std::error::Error for TryRecvError {}

/// Queue state guarded by the channel mutex.
struct Inner<T> {
    queue: VecDeque<T>,
    /// `None` = unbounded; `Some(cap)` blocks senders at `cap` queued.
    capacity: Option<usize>,
    senders: usize,
    receivers: usize,
}

/// The shared core of one channel.
struct Shared<T> {
    inner: Mutex<Inner<T>>,
    /// Signalled when a message is queued or the last sender leaves.
    not_empty: Condvar,
    /// Signalled when a message is taken or the last receiver leaves.
    not_full: Condvar,
}

/// The sending half of a channel. Cloning adds a producer.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of a channel. Cloning adds a consumer.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Create a channel with no capacity bound: `send` never blocks.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    with_capacity(None)
}

/// Create a channel holding at most `capacity` queued messages; `send`
/// blocks while the channel is full.
///
/// # Panics
/// Panics on zero capacity: crossbeam's rendezvous semantics are not
/// implemented by this shim.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(
        capacity >= 1,
        "bounded(0) rendezvous channels are not supported by the shim"
    );
    with_capacity(Some(capacity))
}

fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            queue: VecDeque::new(),
            capacity,
            senders: 1,
            receivers: 1,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Queue a message, blocking while a bounded channel is full. Fails —
    /// returning the message — once every receiver has disconnected.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut inner = self.shared.inner.lock().expect("channel poisoned");
        loop {
            if inner.receivers == 0 {
                return Err(SendError(value));
            }
            let full = inner.capacity.is_some_and(|cap| inner.queue.len() >= cap);
            if !full {
                inner.queue.push_back(value);
                drop(inner);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            inner = self.shared.not_full.wait(inner).expect("channel poisoned");
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.inner.lock().expect("channel poisoned").senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        #[cfg(feature = "model")]
        if crate::model::tearing_down() {
            return; // every endpoint is unwinding; nobody waits on the count
        }
        let remaining = {
            let mut inner = self.shared.inner.lock().expect("channel poisoned");
            inner.senders -= 1;
            inner.senders
        };
        if remaining == 0 {
            // Wake receivers parked in `recv` so they observe disconnect.
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Take the next message, blocking while the channel is empty and at
    /// least one sender remains. Fails once empty **and** disconnected.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut inner = self.shared.inner.lock().expect("channel poisoned");
        loop {
            if let Some(value) = inner.queue.pop_front() {
                drop(inner);
                self.shared.not_full.notify_one();
                return Ok(value);
            }
            if inner.senders == 0 {
                return Err(RecvError);
            }
            inner = self.shared.not_empty.wait(inner).expect("channel poisoned");
        }
    }

    /// Take the next message without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut inner = self.shared.inner.lock().expect("channel poisoned");
        if let Some(value) = inner.queue.pop_front() {
            drop(inner);
            self.shared.not_full.notify_one();
            return Ok(value);
        }
        if inner.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// A blocking iterator draining the channel until it disconnects.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { receiver: self }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared
            .inner
            .lock()
            .expect("channel poisoned")
            .receivers += 1;
        Receiver {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        #[cfg(feature = "model")]
        if crate::model::tearing_down() {
            return; // every endpoint is unwinding; nobody waits on the count
        }
        let remaining = {
            let mut inner = self.shared.inner.lock().expect("channel poisoned");
            inner.receivers -= 1;
            inner.receivers
        };
        if remaining == 0 {
            // Wake senders parked in `send` so they observe disconnect.
            self.shared.not_full.notify_all();
        }
    }
}

/// Blocking iterator over received messages (see [`Receiver::iter`]).
pub struct Iter<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Iterator for Iter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.receiver.recv().ok()
    }
}

impl<'a, T> IntoIterator for &'a Receiver<T> {
    type Item = T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn send_then_recv_in_order() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn recv_fails_after_all_senders_drop() {
        let (tx, rx) = unbounded();
        tx.send(7).unwrap();
        drop(tx);
        // In-flight message still delivered, then disconnect.
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_fails_after_all_receivers_drop() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(5), Err(SendError(5)));
    }

    #[test]
    fn cloned_sender_keeps_channel_alive() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(9).unwrap();
        assert_eq!(rx.recv(), Ok(9));
        drop(tx2);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn recv_blocks_until_a_send_arrives() {
        let (tx, rx) = unbounded();
        let handle = thread::spawn(move || rx.recv());
        thread::sleep(Duration::from_millis(20));
        tx.send(42usize).unwrap();
        assert_eq!(handle.join().unwrap(), Ok(42));
    }

    #[test]
    fn bounded_send_blocks_until_room() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let handle = thread::spawn(move || {
            tx.send(2).unwrap(); // blocks until the first recv
            tx
        });
        thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        let tx = handle.join().unwrap();
        assert_eq!(rx.recv(), Ok(2));
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    #[should_panic(expected = "rendezvous")]
    fn zero_capacity_unsupported() {
        let _ = bounded::<usize>(0);
    }

    #[test]
    fn mpmc_every_message_delivered_exactly_once() {
        // 4 producers × 250 messages drained by 3 consumers: the union of
        // everything received must be exactly the multiset sent.
        let (tx, rx) = unbounded::<usize>();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..250 {
                        tx.send(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || rx.iter().collect::<Vec<usize>>())
            })
            .collect();
        drop(rx);
        for p in producers {
            p.join().unwrap();
        }
        let mut got: Vec<usize> = Vec::new();
        for c in consumers {
            got.extend(c.join().unwrap());
        }
        got.sort_unstable();
        let mut want: Vec<usize> = (0..4)
            .flat_map(|p| (0..250).map(move |i| p * 1000 + i))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn last_sender_drop_wakes_every_blocked_receiver_exactly_once() {
        // Three receivers all parked in `recv` on an empty channel; the
        // last sender clone dropping must wake *all* of them (notify_all
        // on last-sender-drop), and each must observe disconnect exactly
        // once — no receiver may hang, receive a phantom message, or be
        // woken twice.
        let (tx, rx) = unbounded::<usize>();
        let tx2 = tx.clone();
        let receivers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || rx.recv())
            })
            .collect();
        // Let the receivers reach the condvar wait before disconnecting.
        thread::sleep(Duration::from_millis(30));
        drop(tx); // not the last sender: must wake nobody
        thread::sleep(Duration::from_millis(10));
        drop(tx2); // last sender: must wake all three
        for handle in receivers {
            assert_eq!(
                handle.join().expect("receiver thread must not panic"),
                Err(RecvError),
                "a blocked receiver must observe disconnect, not a value"
            );
        }
    }

    #[test]
    fn last_receiver_drop_wakes_every_blocked_sender() {
        // The symmetric edge: two senders parked in `send` on a full
        // bounded channel; the last receiver dropping must wake both so
        // they observe disconnect and hand their message back.
        let (tx, rx) = bounded::<usize>(1);
        tx.send(0).unwrap(); // fill the channel
        let senders: Vec<_> = (0..2)
            .map(|i| {
                let tx = tx.clone();
                thread::spawn(move || tx.send(100 + i))
            })
            .collect();
        thread::sleep(Duration::from_millis(30));
        drop(rx); // only receiver: both parked senders must wake
        let mut returned: Vec<usize> = senders
            .into_iter()
            .map(|h| {
                let err = h
                    .join()
                    .expect("sender thread must not panic")
                    .expect_err("send into a receiverless channel must fail");
                err.0
            })
            .collect();
        returned.sort_unstable();
        assert_eq!(returned, vec![100, 101], "unsent messages are handed back");
    }

    #[test]
    fn iter_drains_then_stops() {
        let (tx, rx) = unbounded();
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let all: Vec<i32> = rx.iter().collect();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }
}

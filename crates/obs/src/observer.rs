//! The observer hook and its shared, clonable handle.

use crate::event::Event;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// A consumer of trace [`Event`]s.
///
/// Implementations should be cheap per call; instrumented code invokes
/// `on_event` synchronously at every traced transition.
pub trait Observer {
    /// Receives one event.
    fn on_event(&mut self, event: &Event);
}

/// A clonable, shareable observer reference.
///
/// Instrumented structures (e.g. the simulator) store an
/// `Option<SharedObserver>`; cloning the structure shares the observer
/// rather than duplicating it, so a checker exploring clones of a simulator
/// feeds one sink. Use [`Handle`] to keep typed access to the underlying
/// sink while the instrumented code holds `SharedObserver`s.
#[derive(Clone)]
pub struct SharedObserver {
    inner: Rc<RefCell<dyn Observer>>,
}

impl SharedObserver {
    /// Wraps an observer. Prefer [`Handle::new`] when you need the sink
    /// back after the run.
    pub fn new<O: Observer + 'static>(observer: O) -> SharedObserver {
        SharedObserver {
            inner: Rc::new(RefCell::new(observer)),
        }
    }

    /// Forwards one event to the observer.
    ///
    /// # Panics
    ///
    /// Panics if called re-entrantly from inside `on_event`.
    pub fn emit(&self, event: &Event) {
        self.inner.borrow_mut().on_event(event);
    }
}

impl fmt::Debug for SharedObserver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedObserver").finish_non_exhaustive()
    }
}

/// A typed handle to a sink that has been shared with instrumented code.
///
/// ```
/// use mca_obs::{CollectSink, Event, Handle};
///
/// let handle = Handle::new(CollectSink::default());
/// let shared = handle.observer();
/// shared.emit(&Event::Bid { step: 0, agent: 1, placed: true });
/// assert_eq!(handle.with(|sink| sink.events.len()), 1);
/// ```
pub struct Handle<O: Observer> {
    inner: Rc<RefCell<O>>,
}

impl<O: Observer + 'static> Handle<O> {
    /// Wraps `observer` for sharing.
    pub fn new(observer: O) -> Handle<O> {
        Handle {
            inner: Rc::new(RefCell::new(observer)),
        }
    }

    /// An untyped [`SharedObserver`] aliasing the same sink.
    pub fn observer(&self) -> SharedObserver {
        SharedObserver {
            inner: self.inner.clone() as Rc<RefCell<dyn Observer>>,
        }
    }

    /// Runs `f` with mutable access to the sink.
    ///
    /// # Panics
    ///
    /// Panics if the sink is currently processing an event.
    pub fn with<R>(&self, f: impl FnOnce(&mut O) -> R) -> R {
        f(&mut self.inner.borrow_mut())
    }

    /// Unwraps the sink. Returns `Err(self)` if instrumented code still
    /// holds a [`SharedObserver`] aliasing it.
    pub fn try_into_inner(self) -> Result<O, Handle<O>> {
        match Rc::try_unwrap(self.inner) {
            Ok(cell) => Ok(cell.into_inner()),
            Err(inner) => Err(Handle { inner }),
        }
    }
}

impl<O: Observer> Clone for Handle<O> {
    fn clone(&self) -> Self {
        Handle {
            inner: self.inner.clone(),
        }
    }
}

impl<O: Observer> fmt::Debug for Handle<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Handle").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CollectSink;

    #[test]
    fn handle_shares_one_sink_across_clones() {
        let handle = Handle::new(CollectSink::default());
        let a = handle.observer();
        let b = a.clone();
        let e = Event::Bid {
            step: 1,
            agent: 0,
            placed: true,
        };
        a.emit(&e);
        b.emit(&e);
        assert_eq!(handle.with(|s| s.events.len()), 2);
    }

    #[test]
    fn try_into_inner_requires_sole_ownership() {
        let handle = Handle::new(CollectSink::default());
        let shared = handle.observer();
        let handle = handle.try_into_inner().unwrap_err();
        drop(shared);
        let sink = handle.try_into_inner().unwrap();
        assert!(sink.events.is_empty());
    }
}

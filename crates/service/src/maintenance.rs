//! Background maintenance: the checkpoint thread that bounds replay
//! debt and drives degraded services back to health.
//!
//! A durable [`DisclosureService`] only
//! checkpoints when someone calls
//! [`checkpoint`](crate::DisclosureService::checkpoint).  The
//! [`BackgroundCheckpointer`] is that someone: a thread that, on an
//! interval, begins a checkpoint under the service lock, encodes the
//! image **off the lock** on its own thread, and completes it under the
//! lock again — failures are counted in
//! [`DurabilityHealth::checkpoint_failures`](crate::DurabilityHealth::checkpoint_failures)
//! and retried next tick.  Because
//! [`checkpoint`](crate::DisclosureService::checkpoint) is also the
//! Degraded → Healthy promotion path, the same thread doubles as the
//! self-healing loop: once storage recovers, the next tick lands an
//! image, replaces the log, and the service resumes accepting
//! mutations.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::service::DisclosureService;

/// How often the stop flag is polled while waiting out the interval, so
/// [`stop`](BackgroundCheckpointer::stop) returns promptly even under
/// long checkpoint intervals.
const STOP_POLL: Duration = Duration::from_millis(20);

/// A background thread that periodically checkpoints a shared
/// [`DisclosureService`] — bounding the WAL replay debt while healthy,
/// and promoting the service back from degraded read-only serving once
/// storage recovers.
///
/// The service must be shared behind `Arc<Mutex<_>>`.  On a healthy
/// service the thread holds the lock only for the two cheap ends of a
/// checkpoint — [`begin_checkpoint`](DisclosureService::begin_checkpoint)
/// (WAL commit + state freeze) and
/// [`complete_checkpoint`](DisclosureService::complete_checkpoint) (image
/// write + log retirement) — while the expensive payload serialization
/// runs *between* them on this thread, with the lock released:
/// admissions and mutations proceed concurrently, and their WAL records
/// past the frozen sequence number survive the completion's pruning.
/// Degraded services checkpoint synchronously under the lock (mutations
/// are refused then anyway, and promotion replaces the log wholesale).
/// Dropping the handle stops the thread (signal + join), as does the
/// explicit [`stop`](Self::stop).
///
/// ```no_run
/// use std::sync::{Arc, Mutex};
/// use std::time::Duration;
/// use fdc_core::SecurityViews;
/// use fdc_service::{BackgroundCheckpointer, DisclosureService, ServiceConfig};
///
/// let (service, _report) = DisclosureService::open_durable(
///     SecurityViews::paper_example(),
///     ServiceConfig::default(),
///     std::path::Path::new("/var/lib/fdc"),
/// )?;
/// let service = Arc::new(Mutex::new(service));
/// let checkpointer =
///     BackgroundCheckpointer::spawn(Arc::clone(&service), Duration::from_secs(30));
/// // ... serve through `service` ...
/// checkpointer.stop();
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct BackgroundCheckpointer {
    handle: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
}

impl BackgroundCheckpointer {
    /// Spawns the maintenance thread, checkpointing `service` every
    /// `interval` (first attempt one interval after spawn).
    pub fn spawn(service: Arc<Mutex<DisclosureService>>, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || loop {
            let mut waited = Duration::ZERO;
            while waited < interval {
                if flag.load(Ordering::Relaxed) {
                    return;
                }
                let step = STOP_POLL.min(interval - waited);
                std::thread::sleep(step);
                waited += step;
            }
            if flag.load(Ordering::Relaxed) {
                return;
            }
            // Failures are counted in the service's health block and
            // retried next tick; there is nobody to return them to here.
            let mut guard = service.lock().unwrap_or_else(|e| e.into_inner());
            if guard.is_degraded() {
                // The Degraded → Healthy promotion path replaces the log
                // wholesale; mutations are refused anyway, so there is
                // nothing to overlap with — checkpoint under the lock.
                let _ = guard.checkpoint();
            } else if let Ok(pending) = guard.begin_checkpoint() {
                // Healthy: freeze the cheap state under the lock, then
                // release it and serialize the image right here, so
                // admissions and mutations proceed concurrently with the
                // encode.  The `Err` arm is a non-durable service: nothing
                // to checkpoint, ever.
                drop(guard);
                let payload = pending.encode();
                let mut guard = service.lock().unwrap_or_else(|e| e.into_inner());
                let _ = guard.complete_checkpoint(&pending, &payload);
            }
        });
        BackgroundCheckpointer {
            handle: Some(handle),
            stop,
        }
    }

    /// Signals the thread and joins it.  Any in-flight checkpoint
    /// attempt completes first.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for BackgroundCheckpointer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_core::SecurityViews;
    use fdc_service_test_dir::test_dir;

    // A local tempdir helper, mirroring the one in `fdc-durability`.
    mod fdc_service_test_dir {
        use std::path::PathBuf;
        use std::sync::atomic::{AtomicU64, Ordering};

        pub struct TestDir(pub PathBuf);

        impl Drop for TestDir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }

        pub fn test_dir(tag: &str) -> TestDir {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("fdc-maintenance-{tag}-{}-{n}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            TestDir(dir)
        }
    }

    #[test]
    fn background_checkpointer_checkpoints_and_stops() {
        let home = test_dir("bg");
        let (service, _) = DisclosureService::open_durable(
            SecurityViews::paper_example(),
            crate::ServiceConfig::default(),
            &home.0,
        )
        .unwrap();
        let service = Arc::new(Mutex::new(service));
        let checkpointer =
            BackgroundCheckpointer::spawn(Arc::clone(&service), Duration::from_millis(5));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            {
                let service = service.lock().unwrap();
                if service.stats().durability.checkpoints >= 2 {
                    break;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "background thread never checkpointed"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        checkpointer.stop();
        let service = service.lock().unwrap();
        assert!(service.stats().durability.checkpoints >= 2);
        assert!(!service.is_degraded());
    }

    #[test]
    fn dropping_the_handle_stops_the_thread() {
        let home = test_dir("drop");
        let (service, _) = DisclosureService::open_durable(
            SecurityViews::paper_example(),
            crate::ServiceConfig::default(),
            &home.0,
        )
        .unwrap();
        let service = Arc::new(Mutex::new(service));
        let checkpointer =
            BackgroundCheckpointer::spawn(Arc::clone(&service), Duration::from_secs(3600));
        drop(checkpointer); // must not hang for the hour-long interval
        assert_eq!(Arc::strong_count(&service), 1);
    }
}

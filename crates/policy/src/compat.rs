//! The sharded store's old surface, kept only so that the frozen end-to-end
//! benchmark (`examples/svc_bench`) compiles.  Nothing else may call it
//! (`tests/compat_surface.rs`).  Delete with ROADMAP item 1.

use crate::PolicyStore;

/// One [`PolicyStore`] (it derefs to it), whatever shard count `new` is
/// given.  Built by `svc_bench`'s `ladder.rs`.  Delete with ROADMAP item 1.
pub struct ShardedPolicyStore(PolicyStore);

impl ShardedPolicyStore {
    /// An empty store.  Delete with ROADMAP item 1.
    pub fn new(_num_shards: usize) -> Self {
        ShardedPolicyStore(PolicyStore::new())
    }
}

impl std::ops::Deref for ShardedPolicyStore {
    type Target = PolicyStore;
    fn deref(&self) -> &PolicyStore {
        &self.0
    }
}

impl std::ops::DerefMut for ShardedPolicyStore {
    fn deref_mut(&mut self) -> &mut PolicyStore {
        &mut self.0
    }
}

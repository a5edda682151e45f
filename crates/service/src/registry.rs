//! Sharded copy-on-write tenant registry.
//!
//! Lookups take one short per-shard lock just long enough to clone the
//! shard's `Arc<HashMap>` pointer — queries then resolve against that
//! immutable map with no lock held, so a slow registration or eviction on
//! one shard never stalls reads on another (and readers of the *same*
//! shard only wait for a pointer swap, never for an engine build: builds
//! happen outside every registry lock). Writes clone the map, mutate the
//! clone, and swap the pointer — the classic copy-on-write pattern, cheap
//! because registrations are rare next to queries.

use crate::tenant::{Tenant, TenantId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

type Shard = Mutex<Arc<HashMap<u64, Arc<Tenant>>>>;

/// Registry shards: a registration or eviction locks one of them.
const SHARDS: usize = 16;

/// The sharded map `tenant id → tenant`. Ids come from key strings (and,
/// for scenario tenants, content-hash aliases), so one tenant may be
/// reachable under more than one id.
#[derive(Debug)]
pub struct TenantRegistry {
    shards: [Shard; SHARDS],
}

impl Default for TenantRegistry {
    /// An empty registry.
    fn default() -> Self {
        TenantRegistry {
            shards: std::array::from_fn(|_| Mutex::new(Arc::new(HashMap::new()))),
        }
    }
}

impl TenantRegistry {
    fn shard(&self, id: TenantId) -> &Shard {
        // The id is an FNV-1a hash, so its low bits are already mixed.
        &self.shards[(id.raw() % SHARDS as u64) as usize]
    }

    /// The tenant registered under `id`, if any.
    pub fn get(&self, id: TenantId) -> Option<Arc<Tenant>> {
        let map = Arc::clone(&self.shard(id).lock().expect("shard lock poisoned"));
        map.get(&id.raw()).cloned()
    }

    /// Registers `tenant` under `id`, returning the tenant previously
    /// registered under that id (if any).
    pub fn insert(&self, id: TenantId, tenant: Arc<Tenant>) -> Option<Arc<Tenant>> {
        let mut guard = self.shard(id).lock().expect("shard lock poisoned");
        let mut map = HashMap::clone(&guard);
        let previous = map.insert(id.raw(), tenant);
        *guard = Arc::new(map);
        previous
    }

    /// The tenant registered under `id`, created with `make` (cheap — no
    /// engine build) and registered atomically if absent. Two racing
    /// registrations of a new id converge on one tenant.
    pub fn get_or_insert_with(
        &self,
        id: TenantId,
        make: impl FnOnce() -> Arc<Tenant>,
    ) -> Arc<Tenant> {
        let mut guard = self.shard(id).lock().expect("shard lock poisoned");
        if let Some(tenant) = guard.get(&id.raw()) {
            return Arc::clone(tenant);
        }
        let tenant = make();
        let mut map = HashMap::clone(&guard);
        map.insert(id.raw(), Arc::clone(&tenant));
        *guard = Arc::new(map);
        tenant
    }

    /// Removes the registration under `id`, returning the evicted tenant
    /// (which in-flight queries may still hold and finish against).
    pub fn remove(&self, id: TenantId) -> Option<Arc<Tenant>> {
        let mut guard = self.shard(id).lock().expect("shard lock poisoned");
        if !guard.contains_key(&id.raw()) {
            return None;
        }
        let mut map = HashMap::clone(&guard);
        let previous = map.remove(&id.raw());
        *guard = Arc::new(map);
        previous
    }

    /// Number of registrations (aliases counted — one scenario tenant
    /// registered under both its key and its content hash counts twice).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned").len())
            .sum()
    }

    /// Whether the registry holds no tenants.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every distinct registered tenant (aliases deduplicated), in stable
    /// id order.
    pub fn tenants(&self) -> Vec<Arc<Tenant>> {
        let mut out: Vec<Arc<Tenant>> = Vec::new();
        for shard in &self.shards {
            let map = Arc::clone(&shard.lock().expect("shard lock poisoned"));
            out.extend(map.values().cloned());
        }
        out.sort_by_key(|t| t.id());
        out.dedup_by_key(|t| t.id());
        out
    }
}

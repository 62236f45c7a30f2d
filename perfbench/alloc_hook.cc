// The benchmark binary's one translation unit that replaces the global
// allocation operators, so fc::heapAllocCount() sees every heap
// allocation of the served path (core.allocs_per_request).
#include "common/alloc_hook.h"

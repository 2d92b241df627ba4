// Counts malloc calls in a process and prints the total on exit:
//
//   cc -O2 -shared -fPIC -o malloc_count.so tools/malloc_count.c
//   LD_PRELOAD=./malloc_count.so ./build/bench/fig18_fluid_migration --smoke
//
// The last stderr line reads "malloc_count: <n>". Only malloc is counted
// (operator new goes through it); calloc, realloc and free pass through.
// Forwards to glibc's __libc_malloc, so no dlsym bootstrap is needed.
#include <stddef.h>
#include <stdio.h>

extern void* __libc_malloc(size_t size);

static unsigned long long g_mallocs;

void* malloc(size_t size) {
  __atomic_add_fetch(&g_mallocs, 1, __ATOMIC_RELAXED);
  return __libc_malloc(size);
}

__attribute__((destructor)) static void ReportMallocs(void) {
  fprintf(stderr, "malloc_count: %llu\n", g_mallocs);
}

// ASSERT_OK / EXPECT_OK for Status and Result<T>: on failure they print the
// expression and the full Status text, where ASSERT_TRUE(x.ok()) prints
// only "Actual: false".
#ifndef MICROREC_TESTS_TESTING_STATUS_MATCHERS_H_
#define MICROREC_TESTS_TESTING_STATUS_MATCHERS_H_

#include <gtest/gtest.h>

#include "util/status.h"

namespace microrec::testutil {

inline const Status& StatusOf(const Status& status) { return status; }

template <typename T>
const Status& StatusOf(const Result<T>& result) {
  return result.status();
}

template <typename T>
::testing::AssertionResult IsOk(const char* expr, const T& value) {
  const Status& status = StatusOf(value);
  if (status.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << expr << " is not OK: " << status.ToString();
}

}  // namespace microrec::testutil

#define EXPECT_OK(expr) EXPECT_PRED_FORMAT1(::microrec::testutil::IsOk, expr)
#define ASSERT_OK(expr) ASSERT_PRED_FORMAT1(::microrec::testutil::IsOk, expr)

#endif  // MICROREC_TESTS_TESTING_STATUS_MATCHERS_H_
